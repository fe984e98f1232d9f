/**
 * @file
 * A read-only std::istream over an in-memory byte span — the glue
 * that lets the existing stream codecs (capture_io framing, the
 * checkpoint group/delta readers) consume an archive value without
 * copying it out of the mapping first.
 *
 * The span must outlive the stream; the archive guarantees that for
 * values it returned (mappings are retired, not unmapped, until
 * close/compaction — see archive.h).
 */

#ifndef EDDIE_STORE_SPAN_STREAM_H
#define EDDIE_STORE_SPAN_STREAM_H

#include <cstddef>
#include <istream>
#include <streambuf>

namespace eddie::store
{

class SpanBuf : public std::streambuf
{
  public:
    SpanBuf(const char *data, std::size_t size)
    {
        // setg wants mutable pointers; the buffer is never written
        // (no setp, overflow stays at the default eof behaviour).
        char *p = const_cast<char *>(data);
        setg(p, p, p + size);
    }

  protected:
    // Support tellg/seekg so codecs that rewind keep working.
    pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                     std::ios_base::openmode which) override
    {
        if (!(which & std::ios_base::in))
            return pos_type(off_type(-1));
        const off_type size = egptr() - eback();
        off_type target = off;
        if (dir == std::ios_base::cur)
            target += gptr() - eback();
        else if (dir == std::ios_base::end)
            target += size;
        if (target < 0 || target > size)
            return pos_type(off_type(-1));
        setg(eback(), eback() + target, egptr());
        return pos_type(target);
    }

    pos_type seekpos(pos_type pos,
                     std::ios_base::openmode which) override
    {
        return seekoff(off_type(pos), std::ios_base::beg, which);
    }
};

/** istream + its buffer in one object. */
class SpanStream : public std::istream
{
  public:
    SpanStream(const char *data, std::size_t size)
        : std::istream(nullptr), buf_(data, size)
    {
        rdbuf(&buf_);
    }

  private:
    SpanBuf buf_;
};

} // namespace eddie::store

#endif // EDDIE_STORE_SPAN_STREAM_H
