/**
 * @file
 * Typed error taxonomy of the persistence and channel layers.
 *
 * Every failure path that used to throw a bare std::runtime_error now
 * throws one of these, so callers can tell "the file could not be
 * read" (IoError: open failure, short read, write failure) apart from
 * "the bytes are not a valid artifact" (FormatError: bad magic,
 * checksum mismatch, out-of-range value) and from "the channel/fault
 * configuration is invalid" (ChannelFault). All derive from
 * std::runtime_error, so existing catch sites keep working.
 *
 * Header-only (no link dependency), so lower layers such as
 * src/faults/ can throw eddie::core::ChannelFault without depending
 * on the core library.
 */

#ifndef EDDIE_CORE_ERRORS_H
#define EDDIE_CORE_ERRORS_H

#include <cerrno>
#include <stdexcept>
#include <string>
#include <system_error>

namespace eddie::core
{

/** Base of all EDDIE-typed errors. */
class Error : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Stream/file-level failure: cannot open, short read, failed
 *  write. The artifact may be fine; the I/O was not completed. */
class IoError : public Error
{
  public:
    using Error::Error;
};

/**
 * Builds an IoError carrying the failed operation, the path, an
 * optional byte offset, and the calling thread's current errno
 * (decoded plus numeric). Call it in the throw expression directly
 * after the failing syscall so errno is still the syscall's:
 *
 *     throw ioErrorErrno("archive: open", path);
 *     throw ioErrorErrno("checkpoint: write", tmp, off);
 *
 * errno == 0 (e.g. a short read that set no error) omits the errno
 * clause rather than inventing one.
 */
inline IoError
ioErrorErrno(const std::string &operation, const std::string &path,
             long long offset = -1)
{
    const int err = errno;
    std::string msg = operation + " failed for " + path;
    if (offset >= 0)
        msg += " at offset " + std::to_string(offset);
    if (err != 0)
        msg += ": " +
               std::error_code(err, std::generic_category()).message() +
               " (errno " + std::to_string(err) + ")";
    return IoError(msg);
}

/** The bytes were read but are not a valid artifact: bad magic or
 *  version, checksum mismatch, non-finite or out-of-range value,
 *  inconsistent counts. */
class FormatError : public Error
{
  public:
    using Error::Error;
};

/** Invalid channel fault-injection configuration (negative rates,
 *  non-finite parameters) — the fault model itself is broken, as
 *  opposed to the channel being degraded. */
class ChannelFault : public Error
{
  public:
    using Error::Error;
};

} // namespace eddie::core

#endif // EDDIE_CORE_ERRORS_H
