/**
 * @file
 * Makes this process's file writes fail on purpose: while a
 * FileSizeLimit lives, no regular file may grow past its cap
 * (RLIMIT_FSIZE), and SIGXFSZ is ignored, so a write that crosses the
 * cap returns a short count and the next one fails with EFBIG instead
 * of killing the process. Both are restored on destruction.
 */

#ifndef EDDIE_TESTS_STORE_FILE_SIZE_LIMIT_H
#define EDDIE_TESTS_STORE_FILE_SIZE_LIMIT_H

#include <algorithm>
#include <csignal>
#include <cstdint>

#include <sys/resource.h>

class FileSizeLimit
{
  public:
    explicit FileSizeLimit(std::uint64_t bytes)
    {
        ::getrlimit(RLIMIT_FSIZE, &saved_);
        saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
        rlimit cap = saved_;
        cap.rlim_cur = std::min<rlim_t>(rlim_t(bytes), saved_.rlim_max);
        ::setrlimit(RLIMIT_FSIZE, &cap);
    }
    ~FileSizeLimit()
    {
        ::setrlimit(RLIMIT_FSIZE, &saved_);
        std::signal(SIGXFSZ, saved_handler_);
    }

    FileSizeLimit(const FileSizeLimit &) = delete;
    FileSizeLimit &operator=(const FileSizeLimit &) = delete;

  private:
    rlimit saved_{};
    void (*saved_handler_)(int) = SIG_DFL;
};

#endif // EDDIE_TESTS_STORE_FILE_SIZE_LIMIT_H
