/**
 * @file
 * The sweep daemon: a SweepSession served over newline-delimited JSON.
 *
 * Architecture (DESIGN.md "Sweep service"):
 *
 *   client line -> handleLine -> parse (json.hh, protocol.hh)
 *                             -> resolve names (schemeKindFromName,
 *                                SweepSession::internProfile)
 *                             -> BatchQueue -> SweepSession::sweepBatch
 *                             -> response line
 *
 * The BatchQueue is where the service earns its keep: it turns
 * *concurrency* into *batching* with no added idle latency, using
 * leader-based combining.  A submitting thread enqueues its request
 * and, if nobody is draining, immediately becomes the drainer of
 * everything pending -- under no contention that is a batch of one,
 * exactly as fast as calling the session directly.  While a drain is
 * executing, new submitters pile up in the pending list, so the next
 * drain naturally coalesces them: requests sharing a first-level
 * stream (SweepSession::batchGroupKey) are answered by one envelope
 * replay and sliced per request, bit-identical to standalone sweeps.
 *
 * Failure discipline: handleLine() never throws and never terminates
 * the process.  Oversized lines, bad JSON, bad requests, unknown
 * names, engine errors -- each becomes one structured error response,
 * and the daemon keeps serving.  This is the Result/Status contract
 * of common/error.hh extended over the wire.
 *
 * Two transports share all of that: servePipe() reads stdin/writes
 * stdout (one sequential client; what bpsim_client spawns), and
 * serveSocket() accepts any number of concurrent clients on a local
 * unix socket, one thread per connection.
 */

#ifndef BPSIM_SERVICE_SERVER_HH
#define BPSIM_SERVICE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.hh"
#include "sim/sweep_session.hh"

namespace bpsim::service {

/**
 * Leader-based combining queue in front of SweepSession::sweepBatch.
 * Thread-safe; any number of threads may submit concurrently.  A
 * solitary submitter drains itself immediately (batch of one);
 * submitters arriving while a drain executes are combined into the
 * next batch, which is what lets sweepBatch coalesce them.
 */
class BatchQueue
{
  public:
    struct Stats
    {
        /** Requests submitted. */
        std::uint64_t submissions = 0;
        /** Drains executed (batches handed to sweepBatch). */
        std::uint64_t drains = 0;
        /** Drains whose batch held two or more requests. */
        std::uint64_t multiRequestDrains = 0;
        /** sweepBatch accounting accumulated over all drains. */
        BatchCounters batch;
    };

    explicit BatchQueue(SweepSession &session) : session_(session) {}

    BatchQueue(const BatchQueue &) = delete;
    BatchQueue &operator=(const BatchQueue &) = delete;

    /**
     * Serve one request, blocking until its result is ready.  Never
     * throws: an engine exception during a drain is converted into an
     * error Result for every request of that batch (the daemon must
     * survive anything).
     */
    Result<SweepResponse> submit(const SweepRequest &request);

    Stats stats() const;

  private:
    struct Slot
    {
        SweepRequest request;
        std::optional<Result<SweepResponse>> out;
    };

    SweepSession &session_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::shared_ptr<Slot>> pending_;
    bool draining_ = false;
    Stats stats_;
};

/** Daemon configuration. */
struct ServerOptions
{
    /** Result-cache directory (empty = memory-only). */
    std::string cacheDir;
    /** On-disk cache LRU budget in bytes (0 = unbounded). */
    std::uint64_t cacheBudgetBytes = 0;
    /** SweepOptions::threads for executed sweeps (0 = one per
     *  hardware thread, 1 = serial). */
    unsigned threads = 1;
    ProtocolLimits limits;
};

/** Aggregate serving counters (the "stats" verb reports these). */
struct ServerStats
{
    /** Lines handled (including ones that failed to parse). */
    std::uint64_t requests = 0;
    /** Lines answered with an error response. */
    std::uint64_t errors = 0;
    BatchQueue::Stats queue;
};

/**
 * The daemon.  Thread-safe: handleLine() may be called from any
 * number of connection threads concurrently.
 */
class SweepServer
{
  public:
    /** Daemon over the schemes of schemeKindFromName and the
     *  fourteen paper profiles. */
    explicit SweepServer(ServerOptions opts = {});

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    /**
     * Serve one request line (without trailing newline) and return
     * the response line (without trailing newline).  Never throws;
     * every failure mode is an error response.
     */
    std::string handleLine(std::string_view line);

    /**
     * Serve one sweep through the coalescing queue -- the in-process
     * entry point the protocol's "sweep" verb uses, exposed for the
     * stress tests.
     */
    Result<SweepResponse> submitSweep(const SweepRequest &request);

    /**
     * Serve @p in line by line, writing one response line to @p out
     * per request, until EOF or a shutdown request.  Whitespace-only
     * lines are ignored.  Returns non-ok only on transport failure.
     */
    Status servePipe(std::FILE *in, std::FILE *out);

    /**
     * Accept clients on a unix socket at @p path (an existing file at
     * that path is replaced), one thread per connection, until a
     * shutdown request arrives on any connection.  Threads of closed
     * connections are joined at the next accept.  The socket file is
     * removed on return.
     */
    Status serveSocket(const std::string &path);

    /** A shutdown request has been served. */
    bool
    shutdownRequested() const
    {
        return shutdown_.load(std::memory_order_acquire);
    }

    SweepSession &session() { return session_; }
    const ServerOptions &options() const { return opts_; }

    ServerStats stats() const;

  private:
    /** Dispatch a parsed request; may throw (handleLine wraps). */
    JsonValue dispatch(const Request &req);
    JsonValue handleIntern(const Request &req);
    JsonValue handleSweep(const Request &req);
    JsonValue handlePoint(const Request &req);
    JsonValue handleStats(const Request &req);
    JsonValue handleCatalog(const Request &req);
    /** The scheme (sweep and point) and trace key a request names,
     *  or the error response that answers it instead. */
    struct Names
    {
        SchemeKind kind = SchemeKind::GAs;
        TraceHash trace;
        std::optional<JsonValue> error;
    };
    /** Resolve @p req's names: an unknown scheme is unknown_scheme; a
     *  trace that fails to intern is unknown_profile for a profile and
     *  failed otherwise.  The hash form passes through unresolved -- a
     *  warm result cache can answer for traces this process never
     *  materialised. */
    Names resolveNames(const Request &req);
    void countError();
    void serveConnection(int fd);
    /** Wake every blocked transport read so shutdown can complete. */
    void interruptTransports();

    ServerOptions opts_;
    SweepSession session_;
    BatchQueue queue_;
    std::atomic<bool> shutdown_{false};
    std::atomic<int> listenFd_{-1};
    mutable std::mutex statsMutex_;
    std::uint64_t requests_ = 0;
    std::uint64_t errors_ = 0;
    std::mutex connMutex_;
    std::vector<int> connFds_;
};

} // namespace bpsim::service

#endif // BPSIM_SERVICE_SERVER_HH
