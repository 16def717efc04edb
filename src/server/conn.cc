#include "server/conn.hh"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/logging.hh"

namespace interp::server {

// --- Endpoint --------------------------------------------------------------

namespace {

/** The socket address of @p path; false (errno ENAMETOOLONG) when the
 *  path does not fit in a sockaddr_un. */
bool
socketAddress(const std::string &path, sockaddr_un &addr)
{
    addr = {};
    if (path.size() >= sizeof(addr.sun_path)) {
        errno = ENAMETOOLONG;
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

bool
Endpoint::parse(const std::string &spec, Endpoint &out)
{
    if (spec.rfind("unix:", 0) == 0)
        out.path = spec.substr(5);
    else if (spec.find('/') != std::string::npos)
        out.path = spec;
    else
        return false;
    return !out.path.empty() &&
           out.path.size() < sizeof(sockaddr_un::sun_path);
}

int
Endpoint::connect(bool nonblocking) const
{
    sockaddr_un addr;
    if (!socketAddress(path, addr))
        return -1;
    int fd = ::socket(AF_UNIX,
                      SOCK_STREAM | SOCK_CLOEXEC |
                          (nonblocking ? SOCK_NONBLOCK : 0),
                      0);
    if (fd < 0)
        return -1;
    if (::connect(fd, (const sockaddr *)&addr, sizeof(addr)) != 0) {
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
    for (int fd : {listenFd_, wakeRead_, wakeWrite_})
        if (fd >= 0)
            ::close(fd);
    if (!path_.empty())
        ::unlink(path_.c_str());
}

void
Frontend::listen(const std::string &path)
{
    sockaddr_un addr;
    if (path.empty())
        fatal("%s: no socket path configured", who_);
    if (!socketAddress(path, addr))
        fatal("%s: socket path too long: %s", who_, path.c_str());

    int pipefd[2];
    if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0)
        fatal("%s: pipe2: %s", who_, std::strerror(errno));
    wakeRead_ = pipefd[0];
    wakeWrite_ = pipefd[1];

    listenFd_ =
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        fatal("%s: socket: %s", who_, std::strerror(errno));
    ::unlink(path.c_str()); // a stale socket file
    path_ = path;
    if (::bind(listenFd_, (const sockaddr *)&addr, sizeof(addr)) != 0)
        fatal("%s: bind %s: %s", who_, path.c_str(),
              std::strerror(errno));
    if (::listen(listenFd_, 128) != 0)
        fatal("%s: listen %s: %s", who_, path.c_str(),
              std::strerror(errno));
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
    // Fixed entries first: the wake pipe and the listener; then the
    // connections, then @p extra.
    fds_.assign({{wakeRead_, POLLIN, 0}, {listenFd_, POLLIN, 0}});
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
    if (fds_[1].revents & POLLIN)
        acceptAll();
    for (size_t i = 2; i < conns_end; ++i) {
        uint64_t id = ids_[i - 2];
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
Frontend::acceptAll()
{
    for (;;) {
        int fd = ::accept4(listenFd_, nullptr, nullptr,
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
