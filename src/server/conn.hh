/**
 * @file
 * The connection core interpd and interproxy share.
 *
 * Both daemons are one poll() loop over the same pieces: a
 * Unix-domain listener, a wake pipe other threads (and signal
 * handlers) use to interrupt poll(), and accepted connections that
 * open with the protocol hello and then carry length-prefixed frames.
 * Frontend owns those pieces and runs one loop iteration at a time;
 * what a daemon does with a frame is its frame handler, and any
 * sockets of its own (the proxy's shard connections) ride in the same
 * poll() call. Conn is the framed connection itself: bytes received
 * but not yet parsed, bytes encoded but not yet sent, and the
 * non-blocking pumps between them and the socket. Endpoint names a
 * daemon's socket path for both sides: the listener binds it,
 * loadgen and the proxy's shard connections connect to it.
 */

#ifndef INTERP_SERVER_CONN_HH
#define INTERP_SERVER_CONN_HH

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/protocol.hh"

namespace interp::server {

/** Where a daemon listens: a Unix-domain socket path. */
struct Endpoint
{
    std::string path;

    /** Parse "unix:PATH" or a bare path (one with a '/'); false for
     *  anything else, for an empty path and for a path too long for
     *  a unix socket. */
    static bool parse(const std::string &spec, Endpoint &out);

    /** A new stream socket connected to this path, or -1 with errno
     *  set. With @p nonblocking the socket is O_NONBLOCK; a
     *  Unix-domain connect still completes or fails at once. */
    int connect(bool nonblocking = false) const;
};

/** One non-blocking stream connection and its two byte queues. */
struct Conn
{
    int fd = -1;
    RecvBuffer in;   ///< received bytes not yet parsed into frames
    std::string out; ///< encoded bytes not yet sent

    /** recv() until the socket would block, appending to `in`. False
     *  once the peer has closed (errno 0) or the socket failed (errno
     *  says why); what was received before stays in `in`. */
    bool fill();

    /** send() `out` until it is empty or the socket would block.
     *  False if the socket failed (errno says why). */
    bool flush();
};

/**
 * The accepting side of the protocol: the listeners, the wake pipe
 * and every accepted connection of one daemon.
 *
 * A connection must open with the hello; a mismatch is answered with
 * one ERROR response (id 0, no request was parsed) and a close, and
 * an oversized or garbled frame closes the connection. Every complete
 * request frame goes to the frame handler, which may reply() on any
 * connection and close() any — including the one being read.
 */
class Frontend
{
  public:
    using FrameHandler =
        std::function<void(uint64_t conn, const std::string &payload)>;

    /** @p who prefixes fatal() messages ("interpd", "interproxy"). */
    Frontend(const char *who, FrameHandler on_frame);

    /** Closes every socket and unlinks the unix socket path. */
    ~Frontend();

    Frontend(const Frontend &) = delete;
    Frontend &operator=(const Frontend &) = delete;

    /** Create the wake pipe and listen on the unix socket @p path (a
     *  stale file there is unlinked). fatal() on any error. */
    void listen(const std::string &path);

    /** Interrupt poll(). Callable from any thread and from signal
     *  handlers (one pipe write). */
    void wake();

    /** Make poll() return false from now on (any thread / signal). */
    void stop();

    /**
     * One loop iteration: wait up to @p timeout_ms (-1 = forever) on
     * the wake pipe, the listener, every connection and @p extra
     * (whose revents are filled in for the caller); then accept, read
     * and hand complete frames to the handler, and send what
     * connections have queued. False, with nothing serviced, once
     * stop() has been called.
     */
    bool poll(std::vector<pollfd> &extra, int timeout_ms);

    /** Queue @p resp on connection @p conn_id and send what the
     *  socket takes. Dropped if the connection is gone. */
    void reply(uint64_t conn_id, const EvalResponse &resp);

    void close(uint64_t conn_id);

  private:
    struct Accepted : Conn
    {
        bool greeted = false; ///< hello verified
    };

    void acceptAll();
    void serve(uint64_t conn_id);
    void flush(uint64_t conn_id);

    const char *who_;
    FrameHandler onFrame_;
    std::string path_;
    int listenFd_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    std::atomic<bool> stopping_{false};

    uint64_t nextConnId_ = 1;
    std::unordered_map<uint64_t, Accepted> conns_;
    std::vector<pollfd> fds_;   ///< poll() set of the current iteration
    std::vector<uint64_t> ids_; ///< connection of each fds_[2 + i]
};

} // namespace interp::server

#endif // INTERP_SERVER_CONN_HH
