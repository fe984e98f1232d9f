#include "transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "core/errors.h"

namespace eddie::wire
{

namespace
{

int
pollFd(int fd, short events, double deadline_ms)
{
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    int timeout = -1;
    if (deadline_ms >= 0) {
        const double clamped =
            deadline_ms > 2147483647.0 ? 2147483647.0 : deadline_ms;
        timeout = int(std::ceil(clamped));
    }
    return ::poll(&pfd, 1, timeout);
}

/** Splits "host:port" (":0"/"port" = loopback + that port). */
void
splitHostPort(const std::string &addr, std::string &host,
              std::uint16_t &port)
{
    // .assign() instead of operator= dodges GCC 12's
    // -Werror=restrict false positive (see serve/chaos.cpp).
    host.assign("127.0.0.1");
    std::string port_str;
    const std::size_t colon = addr.rfind(':');
    if (colon != std::string::npos) {
        if (colon > 0)
            host.assign(addr, 0, colon);
        port_str.assign(addr, colon + 1, std::string::npos);
    } else {
        port_str.assign(addr);
    }
    if (port_str.empty())
        port_str.push_back('0');
    unsigned long parsed = 0;
    for (const char c : port_str) {
        if (c >= '0' && c <= '9')
            parsed = parsed * 10 + unsigned(c - '0');
        else
            parsed = 65536;
        if (parsed > 65535) {
            errno = EINVAL;
            throw core::ioErrorErrno("wire: parse port", addr);
        }
    }
    port = std::uint16_t(parsed);
}

struct sockaddr_in
tcpAddr(const std::string &addr)
{
    std::string host;
    std::uint16_t port = 0;
    splitHostPort(addr, host, port);
    struct sockaddr_in sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
        errno = EINVAL;
        throw core::ioErrorErrno("wire: parse host", addr);
    }
    return sa;
}

struct sockaddr_un
unixAddr(const std::string &path)
{
    struct sockaddr_un sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof sa.sun_path) {
        errno = ENAMETOOLONG;
        throw core::ioErrorErrno("wire: socket path", path);
    }
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    return sa;
}

} // namespace

Conn::~Conn()
{
    close();
}

Conn::Conn(Conn &&other) noexcept
    : fd_(other.fd_), last_errno_(other.last_errno_)
{
    other.fd_ = -1;
}

Conn &
Conn::operator=(Conn &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        last_errno_ = other.last_errno_;
        other.fd_ = -1;
    }
    return *this;
}

bool
Conn::sendAll(const void *data, std::size_t size)
{
    const char *p = static_cast<const char *>(data);
    while (size > 0) {
        const ssize_t n = ::send(fd_, p, size, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            last_errno_ = errno;
            return false;
        }
        p += n;
        size -= std::size_t(n);
    }
    return true;
}

Conn::RecvStatus
Conn::recvSome(void *buf, std::size_t cap, double deadline_ms,
               std::size_t &got)
{
    got = 0;
    if (fd_ < 0) {
        last_errno_ = EBADF;
        return RecvStatus::Error;
    }
    if (deadline_ms != 0.0) {
        const int ready = pollFd(fd_, POLLIN, deadline_ms);
        if (ready < 0) {
            if (errno == EINTR)
                return RecvStatus::Timeout;
            last_errno_ = errno;
            return RecvStatus::Error;
        }
        if (ready == 0)
            return RecvStatus::Timeout;
    }
    const ssize_t n = ::recv(fd_, buf, cap, MSG_DONTWAIT);
    if (n < 0) {
        if (errno == EINTR || errno == EAGAIN ||
            errno == EWOULDBLOCK)
            return RecvStatus::Timeout;
        last_errno_ = errno;
        return RecvStatus::Error;
    }
    if (n == 0)
        return RecvStatus::Closed;
    got = std::size_t(n);
    return RecvStatus::Data;
}

void
Conn::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Listener::~Listener()
{
    close();
}

Listener::Listener(Listener &&other) noexcept
    : fd_(other.fd_), last_errno_(other.last_errno_),
      address_(std::move(other.address_)),
      unlink_path_(std::move(other.unlink_path_))
{
    other.fd_ = -1;
    other.unlink_path_.clear();
}

Listener &
Listener::operator=(Listener &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        last_errno_ = other.last_errno_;
        address_ = std::move(other.address_);
        unlink_path_ = std::move(other.unlink_path_);
        other.fd_ = -1;
        other.unlink_path_.clear();
    }
    return *this;
}

Listener
Listener::tcp(const std::string &addr)
{
    struct sockaddr_in sa = tcpAddr(addr);
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throw core::ioErrorErrno("wire: socket", addr);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&sa),
               sizeof sa) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw core::ioErrorErrno("wire: bind", addr);
    }
    if (::listen(fd, 64) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw core::ioErrorErrno("wire: listen", addr);
    }
    struct sockaddr_in bound;
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<struct sockaddr *>(&bound),
                      &len) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw core::ioErrorErrno("wire: getsockname", addr);
    }
    char host[INET_ADDRSTRLEN] = {0};
    ::inet_ntop(AF_INET, &bound.sin_addr, host, sizeof host);
    Listener out;
    out.fd_ = fd;
    // Built with += to dodge GCC 12's -Werror=restrict false positive
    // on operator+ chains (same workaround as serve/chaos.cpp).
    out.address_ = host;
    out.address_ += ':';
    out.address_ += std::to_string(ntohs(bound.sin_port));
    return out;
}

Listener
Listener::unixPath(const std::string &path)
{
    struct sockaddr_un sa = unixAddr(path);
    const int fd =
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throw core::ioErrorErrno("wire: socket", path);
    // A stale socket file from a dead listener would make bind fail
    // with EADDRINUSE forever; replace it. (A *live* listener is
    // indistinguishable here — last bind wins, as with pid files.)
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&sa),
               sizeof sa) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw core::ioErrorErrno("wire: bind", path);
    }
    if (::listen(fd, 64) != 0) {
        const int saved = errno;
        ::close(fd);
        ::unlink(path.c_str());
        errno = saved;
        throw core::ioErrorErrno("wire: listen", path);
    }
    Listener out;
    out.fd_ = fd;
    out.address_ = path;
    out.unlink_path_ = path;
    return out;
}

Conn
Listener::accept()
{
    const int fd =
        ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
        last_errno_ = errno;
        return Conn();
    }
    return Conn(fd);
}

void
Listener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (!unlink_path_.empty()) {
        ::unlink(unlink_path_.c_str());
        unlink_path_.clear();
    }
}

Poller::Poller()
    : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC))
{
    if (epoll_fd_ < 0 || wake_fd_ < 0 || !add(wake_fd_, kWakeTag)) {
        const int saved = errno;
        if (wake_fd_ >= 0)
            ::close(wake_fd_);
        if (epoll_fd_ >= 0)
            ::close(epoll_fd_);
        errno = saved;
        throw core::ioErrorErrno("wire: epoll/eventfd", "<poller>");
    }
}

Poller::~Poller()
{
    ::close(wake_fd_);
    ::close(epoll_fd_);
}

bool
Poller::add(int fd, std::uint64_t tag)
{
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof ev);
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

void
Poller::remove(int fd)
{
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void
Poller::wait(double timeout_ms, std::vector<std::uint64_t> &tags)
{
    tags.clear();
    int timeout = -1;
    if (timeout_ms >= 0.0)
        timeout = int(std::ceil(std::min(timeout_ms, 2147483647.0)));
    struct epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout);
    for (int i = 0; i < n; ++i) {
        if (events[i].data.u64 == kWakeTag) {
            std::uint64_t count = 0;
            (void)!::read(wake_fd_, &count, sizeof count);
        }
        tags.push_back(events[i].data.u64);
    }
}

void
Poller::wake()
{
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof one);
}

Conn
connectTcp(const std::string &addr)
{
    struct sockaddr_in sa = tcpAddr(addr);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw core::ioErrorErrno("wire: socket", addr);
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&sa),
                  sizeof sa) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw core::ioErrorErrno("wire: connect", addr);
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return Conn(fd);
}

Conn
connectUnix(const std::string &path)
{
    struct sockaddr_un sa = unixAddr(path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw core::ioErrorErrno("wire: socket", path);
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&sa),
                  sizeof sa) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw core::ioErrorErrno("wire: connect", path);
    }
    return Conn(fd);
}

} // namespace eddie::wire
