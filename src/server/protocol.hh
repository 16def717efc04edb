/**
 * @file
 * Wire protocol of interpd, the interpreter-as-a-service daemon.
 *
 * Both directions speak length-prefixed binary frames over a
 * Unix-domain stream socket. A connection opens with a
 * 4-byte hello — "IPD" plus a protocol version byte — sent by the
 * connecting side before its first frame; the accepting side answers
 * a mismatch with one contained-fatal ERROR response (id 0) and
 * closes, so a client that connected something else entirely (or an
 * old client) gets a diagnosable reply instead of silence, and a
 * garbage-spewing peer cannot make the daemon misparse byte soup as
 * frame lengths. After the hello:
 *
 *   frame    u32 payload length (little-endian), then the payload.
 *
 *   request  u8 verb, u32 request id, then per-verb fields:
 *     EVAL   u8 mode (harness::Lang), u8 flags, u32 deadline_ms,
 *            u64 max_commands (0 = server default), u32 iterations
 *            (micro programs; 0 = per-language default), u8 program
 *            kind (named catalog entry or inline source), u32 len +
 *            bytes of the program name/source.
 *     STATS  no further fields; the response carries the counters as
 *            JSON in its result bytes.
 *
 *   response u32 request id (echoed), u8 status, u64 virtual commands
 *            retired, u64 native instructions emitted, u64 simulated
 *            cycles (0 unless kFlagWithMachine), u64 queue micros,
 *            u64 service micros, u32 len + result bytes (program
 *            stdout for OK, an error message for ERROR, JSON for
 *            STATS).
 *
 * Requests carry client-chosen ids and responses echo them, so a
 * client may pipeline; the server may answer out of submission order
 * (SHED and DEADLINE responses overtake execution). Everything is
 * serialized explicitly via the little-endian helpers shared with the
 * trace-file format; no structs are written raw.
 */

#ifndef INTERP_SERVER_PROTOCOL_HH
#define INTERP_SERVER_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "harness/runner.hh"

namespace interp::server {

// --- connection hello ------------------------------------------------------

/** Wire protocol version; bumped on any incompatible change. */
constexpr uint8_t kProtocolVersion = 1;

/** Bytes a connecting side must send before its first frame. */
constexpr size_t kHelloBytes = 4;

enum class HelloResult : uint8_t
{
    Incomplete, ///< need more bytes (no mismatch so far)
    Ok,         ///< hello consumed from the buffer
    Mismatch,   ///< wrong magic or version; reply ERROR and close
};

/** Append the 4-byte hello ("IPD" + version) to @p out. */
void encodeHello(std::string &out);

/**
 * Inspect the front of @p buf: consume a valid hello (Ok), report a
 * wrong byte as soon as it appears (Mismatch — garbage is rejected
 * on the first byte, not after four), or ask for more (Incomplete).
 */
HelloResult takeHello(std::string &buf);

// --- receive buffering -----------------------------------------------------

/**
 * Receive-side stream buffer that drains frames in amortized O(1).
 *
 * The serve paths used to consume each parsed frame with
 * buf.erase(0, 4 + len), which memmoves the whole remainder once per
 * frame: a pipelined burst of F frames totalling B bytes cost
 * O(F * B) — quadratic in the burst, and entirely the client's
 * choice. RecvBuffer consumes by advancing a read offset instead;
 * the consumed prefix is dropped at most once per poll cycle (the
 * first append() after a drain), so each received byte is moved a
 * bounded number of times no matter how many frames arrive at once.
 */
class RecvBuffer
{
  public:
    /** Append @p n received bytes. The first append after frames
     *  were consumed also compacts — once per poll cycle, the
     *  erase-per-frame this type exists to avoid never happens. */
    void append(const char *data, size_t n)
    {
        compact();
        data_.append(data, n);
    }

    /** Unconsumed bytes. */
    size_t size() const { return data_.size() - off_; }
    bool empty() const { return size() == 0; }
    /** Front of the unconsumed bytes (valid for size() bytes). */
    const char *data() const { return data_.data() + off_; }

    /** Advance the read offset past @p n consumed bytes. */
    void consume(size_t n)
    {
        off_ += n;
        if (off_ > data_.size())
            off_ = data_.size(); // defensive clamp; callers bound n
    }

    /** Drop the consumed prefix now (append() does this lazily). */
    void compact()
    {
        if (off_ == 0)
            return;
        data_.erase(0, off_);
        off_ = 0;
    }

    void clear()
    {
        data_.clear();
        off_ = 0;
    }

  private:
    std::string data_;
    size_t off_ = 0; ///< bytes of data_ already consumed
};

/** takeHello over a RecvBuffer (the serve paths' form). */
HelloResult takeHello(RecvBuffer &buf);

// --- frame limits ----------------------------------------------------------

/** Upper bound on a request payload; larger frames are a protocol
 *  error and close the connection (graceful degradation, not OOM). */
constexpr uint32_t kMaxRequestBytes = 1u << 20;

/** Upper bound on a response payload (stdout of a served program). */
constexpr uint32_t kMaxResponseBytes = 64u << 20;

// --- verbs and statuses ----------------------------------------------------

enum class Verb : uint8_t
{
    Eval = 1,  ///< run one program under instrumentation
    Stats = 2, ///< fetch the daemon's counters as JSON
};

enum class Status : uint8_t
{
    Ok = 0,       ///< executed; result bytes are the program's stdout
    Shed = 1,     ///< admission queue full, request not executed
    Deadline = 2, ///< deadline expired (at dequeue or a safepoint)
    Error = 3,    ///< contained failure; result bytes say why
};

const char *statusName(Status status);

// --- EVAL request flags ----------------------------------------------------

/** Also record the run's trace into the server's --record-dir. */
constexpr uint8_t kFlagRecordTrace = 1u << 0;
/** Simulate timing (Table 3 machine); the response's cycles field. */
constexpr uint8_t kFlagWithMachine = 1u << 1;
/** Install the standard workload input files (inline sources only;
 *  catalog entries already know whether they need them). */
constexpr uint8_t kFlagNeedsInputs = 1u << 2;

/** How the EVAL request names its program. */
enum class ProgramKind : uint8_t
{
    Named = 0,  ///< catalog entry: a macro-suite name or "micro:<op>"
    Inline = 1, ///< program source carried in the request
};

/** Deadline value meaning "no deadline". Zero means "already
 *  expired": the request is admitted, counted, and answered DEADLINE
 *  at dequeue without being executed — the client-side probe for the
 *  deadline path. */
constexpr uint32_t kNoDeadline = 0xffffffffu;

// --- messages --------------------------------------------------------------

struct EvalRequest
{
    uint32_t id = 0;
    harness::Lang mode = harness::Lang::Tcl;
    uint8_t flags = 0;
    uint32_t deadlineMs = kNoDeadline;
    uint64_t maxCommands = 0; ///< 0 = server default budget
    uint32_t iterations = 0;  ///< micro catalog entries; 0 = default
    ProgramKind kind = ProgramKind::Named;
    std::string program;      ///< catalog name or inline source
};

struct StatsRequest
{
    uint32_t id = 0;
};

struct EvalResponse
{
    uint32_t id = 0;
    Status status = Status::Ok;
    uint64_t commands = 0;     ///< virtual commands retired
    uint64_t instructions = 0; ///< native instructions emitted
    uint64_t cycles = 0;       ///< simulated cycles (kFlagWithMachine)
    uint64_t queueMicros = 0;  ///< admission -> dequeue
    uint64_t serviceMicros = 0;///< execution time on the worker
    std::string result;        ///< stdout / error message / JSON
};

// --- encoding --------------------------------------------------------------

/** Append one framed request to @p out. */
void encodeEvalRequest(std::string &out, const EvalRequest &req);
void encodeStatsRequest(std::string &out, const StatsRequest &req);

/** Append one framed response to @p out. */
void encodeResponse(std::string &out, const EvalResponse &resp);

// --- decoding --------------------------------------------------------------

/**
 * Result of looking for one complete frame at the front of a stream
 * buffer.
 */
enum class FrameResult : uint8_t
{
    Incomplete, ///< need more bytes
    Frame,      ///< a complete frame was extracted
    Malformed,  ///< oversized or garbled; close the connection
};

/**
 * If @p buf starts with a complete frame no larger than @p max_bytes,
 * move its payload into @p payload, erase it from @p buf and return
 * Frame. Never blocks; never throws.
 */
FrameResult takeFrame(std::string &buf, std::string &payload,
                      uint32_t max_bytes);

/** takeFrame over a RecvBuffer: consumes by offset, no per-frame
 *  erase (the serve paths' form; see RecvBuffer). */
FrameResult takeFrame(RecvBuffer &buf, std::string &payload,
                      uint32_t max_bytes);

/** Peek a request payload's verb (first byte). 0 on empty. */
uint8_t requestVerb(const std::string &payload);

/** Decode a request payload; false on any malformation. */
bool decodeEvalRequest(const std::string &payload, EvalRequest &req);
bool decodeStatsRequest(const std::string &payload, StatsRequest &req);

/** Decode a response payload; false on any malformation. */
bool decodeResponse(const std::string &payload, EvalResponse &resp);

} // namespace interp::server

#endif // INTERP_SERVER_PROTOCOL_HH
