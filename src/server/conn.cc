#include "server/conn.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "support/logging.hh"

namespace interp::server {

// --- Endpoint --------------------------------------------------------------

namespace {

/** @p ep's socket address; false (errno ENAMETOOLONG) when the path
 *  does not fit in a sockaddr_un. */
bool
socketAddress(const Endpoint &ep, sockaddr_storage &addr, socklen_t &len)
{
    addr = {};
    if (ep.unixPath.empty()) {
        auto *sin = (sockaddr_in *)&addr;
        sin->sin_family = AF_INET;
        sin->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        sin->sin_port = htons((uint16_t)ep.tcpPort);
        len = sizeof(sockaddr_in);
        return true;
    }
    auto *sun = (sockaddr_un *)&addr;
    if (ep.unixPath.size() >= sizeof(sun->sun_path)) {
        errno = ENAMETOOLONG;
        return false;
    }
    sun->sun_family = AF_UNIX;
    std::memcpy(sun->sun_path, ep.unixPath.c_str(), ep.unixPath.size() + 1);
    len = sizeof(sockaddr_un);
    return true;
}

bool
allDigits(const std::string &s)
{
    return !s.empty() &&
           s.find_first_not_of("0123456789") == std::string::npos;
}

} // namespace

bool
Endpoint::parse(const std::string &spec, Endpoint &out)
{
    out = Endpoint();
    if (spec.rfind("unix:", 0) == 0)
        out.unixPath = spec.substr(5);
    else if (spec.rfind("tcp:", 0) == 0 && allDigits(spec.substr(4)))
        out.tcpPort = std::atoi(spec.c_str() + 4);
    else if (spec.find('/') != std::string::npos)
        out.unixPath = spec;
    else if (allDigits(spec))
        out.tcpPort = std::atoi(spec.c_str());
    else
        return false;
    return out.unixPath.size() < sizeof(sockaddr_un::sun_path);
}

std::string
Endpoint::str() const
{
    return unixPath.empty() ? "127.0.0.1:" + std::to_string(tcpPort)
                            : unixPath;
}

int
Endpoint::connect(bool *pending) const
{
    sockaddr_storage addr;
    socklen_t len = 0;
    if (!socketAddress(*this, addr, len))
        return -1;
    int fd = ::socket(addr.ss_family,
                      SOCK_STREAM | SOCK_CLOEXEC |
                          (pending ? SOCK_NONBLOCK : 0),
                      0);
    if (fd < 0)
        return -1;
    int rc = ::connect(fd, (const sockaddr *)&addr, len);
    if (pending)
        *pending = rc != 0;
    if (rc != 0 && !(pending && errno == EINPROGRESS)) {
        int err = errno;
        ::close(fd);
        errno = err;
        return -1;
    }
    return fd;
}

// --- Conn ------------------------------------------------------------------

bool
Conn::fill()
{
    char buf[64 * 1024];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            in.append(buf, (size_t)n);
            continue;
        }
        if (n == 0) {
            errno = 0;
            return false;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        if (errno != EINTR)
            return false;
    }
}

bool
Conn::flush()
{
    while (!out.empty()) {
        ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
        if (n > 0) {
            out.erase(0, (size_t)n);
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        if (errno != EINTR)
            return false;
    }
    return true;
}

// --- Frontend lifecycle ----------------------------------------------------

Frontend::Frontend(const char *who, FrameHandler on_frame)
    : who_(who), onFrame_(std::move(on_frame))
{
}

Frontend::~Frontend()
{
    for (auto &entry : conns_)
        ::close(entry.second.fd);
    for (int fd : {unixFd_, tcpFd_, wakeRead_, wakeWrite_})
        if (fd >= 0)
            ::close(fd);
    if (!unixPath_.empty())
        ::unlink(unixPath_.c_str());
}

void
Frontend::listen(const std::string &unix_path, int tcp_port,
                 bool reuse_port)
{
    if (unix_path.empty() && tcp_port < 0)
        fatal("%s: no listener configured "
              "(need a unix path or a tcp port)",
              who_);

    int pipefd[2];
    if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0)
        fatal("%s: pipe2: %s", who_, std::strerror(errno));
    wakeRead_ = pipefd[0];
    wakeWrite_ = pipefd[1];

    if (!unix_path.empty())
        unixFd_ = bindListener({unix_path, -1}, false);
    if (tcp_port >= 0) {
        tcpFd_ = bindListener({"", tcp_port}, reuse_port);
        sockaddr_in sin{};
        socklen_t len = sizeof(sin);
        if (::getsockname(tcpFd_, (sockaddr *)&sin, &len) != 0)
            fatal("%s: getsockname: %s", who_, std::strerror(errno));
        boundTcpPort_ = ntohs(sin.sin_port);
    }
}

int
Frontend::bindListener(const Endpoint &ep, bool reuse_port)
{
    sockaddr_storage addr;
    socklen_t len = 0;
    if (!socketAddress(ep, addr, len))
        fatal("%s: socket path too long: %s", who_, ep.unixPath.c_str());
    int fd = ::socket(addr.ss_family,
                      SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0)
        fatal("%s: socket: %s", who_, std::strerror(errno));
    int one = 1;
    if (ep.unixPath.empty()) {
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (reuse_port && ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one,
                                       sizeof(one)) != 0)
            fatal("%s: SO_REUSEPORT: %s", who_, std::strerror(errno));
    } else {
        ::unlink(ep.unixPath.c_str()); // a stale socket file
        unixPath_ = ep.unixPath;
    }
    if (::bind(fd, (const sockaddr *)&addr, len) != 0)
        fatal("%s: bind %s: %s", who_, ep.str().c_str(),
              std::strerror(errno));
    if (::listen(fd, 128) != 0)
        fatal("%s: listen %s: %s", who_, ep.str().c_str(),
              std::strerror(errno));
    return fd;
}

void
Frontend::wake()
{
    char byte = 1;
    // EAGAIN means a wake byte is already pending — good enough.
    (void)!::write(wakeWrite_, &byte, 1);
}

void
Frontend::stop()
{
    stopping_.store(true, std::memory_order_release);
    wake();
}

// --- event loop ------------------------------------------------------------

bool
Frontend::poll(std::vector<pollfd> &extra, int timeout_ms)
{
    if (stopping_.load(std::memory_order_acquire))
        return false;
    // Fixed entries first (negative fds are ignored by poll): the wake
    // pipe and both listeners; then the connections, then @p extra.
    fds_.assign({{wakeRead_, POLLIN, 0},
                 {unixFd_, POLLIN, 0},
                 {tcpFd_, POLLIN, 0}});
    ids_.clear();
    for (auto &entry : conns_) {
        short events = POLLIN;
        if (!entry.second.out.empty())
            events |= POLLOUT;
        fds_.push_back({entry.second.fd, events, 0});
        ids_.push_back(entry.first);
    }
    size_t conns_end = fds_.size();
    fds_.insert(fds_.end(), extra.begin(), extra.end());

    int n = ::poll(fds_.data(), (nfds_t)fds_.size(), timeout_ms);
    if (n < 0) {
        if (errno != EINTR)
            fatal("%s: poll: %s", who_, std::strerror(errno));
        for (pollfd &p : extra)
            p.revents = 0;
        return true;
    }
    if (stopping_.load(std::memory_order_acquire))
        return false;

    if (fds_[0].revents & POLLIN) {
        char drain[256];
        while (::read(wakeRead_, drain, sizeof(drain)) > 0) {
        }
    }
    for (size_t i = 1; i < 3; ++i)
        if (fds_[i].revents & POLLIN)
            acceptAll(fds_[i].fd);
    for (size_t i = 3; i < conns_end; ++i) {
        uint64_t id = ids_[i - 3];
        if (fds_[i].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL))
            serve(id);
        if (fds_[i].revents & POLLOUT)
            flush(id);
    }
    for (size_t i = 0; i < extra.size(); ++i)
        extra[i].revents = fds_[conns_end + i].revents;
    return true;
}

void
Frontend::acceptAll(int listen_fd)
{
    for (;;) {
        int fd = ::accept4(listen_fd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN, or a transient per-connection error
        }
        conns_[nextConnId_++].fd = fd;
    }
}

void
Frontend::serve(uint64_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    if (!it->second.fill()) {
        close(conn_id);
        return;
    }

    std::string payload;
    for (;;) {
        it = conns_.find(conn_id);
        if (it == conns_.end())
            return; // a handled frame closed the connection
        Accepted &conn = it->second;
        if (!conn.greeted) {
            switch (takeHello(conn.in)) {
              case HelloResult::Incomplete:
                return;
              case HelloResult::Mismatch: {
                // Contained protocol failure: one diagnosable ERROR
                // reply, best-effort flush, close. The daemon itself
                // is unharmed.
                EvalResponse resp;
                resp.id = 0;
                resp.status = Status::Error;
                resp.result = "protocol mismatch: expected IPD hello "
                              "version " +
                              std::to_string(kProtocolVersion);
                reply(conn_id, resp);
                close(conn_id);
                return;
              }
              case HelloResult::Ok:
                conn.greeted = true;
                break;
            }
        }
        FrameResult r = takeFrame(conn.in, payload, kMaxRequestBytes);
        if (r == FrameResult::Incomplete)
            return;
        if (r == FrameResult::Malformed) {
            close(conn_id);
            return;
        }
        onFrame_(conn_id, payload);
    }
}

void
Frontend::flush(uint64_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it != conns_.end() && !it->second.flush())
        close(conn_id);
}

void
Frontend::reply(uint64_t conn_id, const EvalResponse &resp)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return; // client went away; drop the response
    encodeResponse(it->second.out, resp);
    flush(conn_id);
}

void
Frontend::close(uint64_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    ::close(it->second.fd);
    conns_.erase(it);
}

} // namespace interp::server
