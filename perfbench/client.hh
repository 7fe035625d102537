/**
 * @file
 * The benchmark's side of the wire: a balance_serviced child process
 * on an ephemeral loopback port, one-shot HTTP/1.1 requests, and
 * persistent SBP1 frame connections (docs/SERVICE.md).
 */

#ifndef PERFBENCH_CLIENT_HH
#define PERFBENCH_CLIENT_HH

#include <string>
#include <vector>

namespace perfbench
{

/** A daemon child process; stopped (SIGTERM, then waited) on scope exit. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Spawn @p path with @p args plus "--port 0" and wait for its
     * "listening on" line.
     * @return false (with a message in @p error) when it did not come up.
     */
    bool start(const std::string &path,
               const std::vector<std::string> &args, std::string *error);

    /** SIGTERM, wait for exit; SIGKILL after a grace period. Idempotent. */
    void stop();

    int pid() const { return childPid; }
    int port() const { return boundPort; }

  private:
    int childPid = -1;
    int boundPort = 0;
};

/**
 * One SCHED_IDLE busy thread per CPU in a child process, for the
 * length of a run. A vCPU that halts when idle must be woken through
 * the hypervisor, and on a shared host that wake-up adds 0.2-2 ms at
 * random, which made the latency of identical runs differ by 2x. The
 * spinners keep every vCPU running without taking CPU from any normal
 * thread (SCHED_IDLE runs only when nothing else can). They live in
 * their own process so they never count in the benchmark's CPU time.
 * Each spin iteration issues a CPU pause hint, so on an SMT host a
 * spinner leaves most of the core's execution resources to the work
 * on its sibling; the run's fingerprint records whether SMT siblings
 * exist and whether the spinners ran.
 */
class KeepAwake
{
  public:
    explicit KeepAwake(int cpus);
    ~KeepAwake();
    KeepAwake(const KeepAwake &) = delete;
    KeepAwake &operator=(const KeepAwake &) = delete;

    /** False when the spinner process could not be started. */
    bool running() const { return childPid > 0; }

  private:
    int childPid = -1;
};

/** One reply from the service. */
struct Reply
{
    int status = 0;          ///< HTTP status; 200 for a frame reply
    std::string body;        ///< response payload
    std::string cacheHeader; ///< X-Balance-Cache (HTTP only)
};

/**
 * One HTTP exchange on a fresh loopback connection (the daemon
 * closes after each). @return false on a connection or framing error.
 */
bool httpRequest(int port, const std::string &method,
                 const std::string &target, const std::string &body,
                 Reply &reply);

/**
 * A persistent SBP1 connection; reconnects lazily after an error.
 *
 * The daemon writes a frame reply as two send() calls (header, then
 * payload) on a socket without TCP_NODELAY, so Nagle holds the payload
 * until the header is acknowledged. A client that delays its ACKs then
 * waits ~40 ms per frame. With @p quickAck the client acknowledges at
 * once (TCP_QUICKACK, re-armed after every send), as a
 * latency-sensitive client would; the traced run measures the stall
 * a client without it sees (server.frame_stall_ms).
 */
class FrameConnection
{
  public:
    FrameConnection(int port, bool quickAck = true)
        : port(port), quickAck(quickAck)
    {}
    ~FrameConnection() { close(); }
    FrameConnection(const FrameConnection &) = delete;
    FrameConnection &operator=(const FrameConnection &) = delete;

    /** Send one frame and read its reply frame. */
    bool exchange(const std::string &payload, Reply &reply);

    void close();

  private:
    int port;
    bool quickAck;
    int fd = -1;
};

} // namespace perfbench

#endif // PERFBENCH_CLIENT_HH
