#include "client.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "support/http.hh"

namespace perfbench
{

namespace
{

/** Client-side receive deadline; the largest request takes well under 1 s. */
constexpr int recvDeadlineMs = 30000;

int
connectLoopback(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
sendAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        data += n;
        len -= std::size_t(n);
    }
    return true;
}

bool
recvExact(int fd, char *buf, std::size_t len)
{
    std::size_t done = 0;
    while (done < len) {
        ssize_t n = balance::recvWithDeadline(fd, buf + done, len - done,
                                              recvDeadlineMs);
        if (n <= 0)
            return false;
        done += std::size_t(n);
    }
    return true;
}

} // namespace

KeepAwake::KeepAwake(int cpus)
{
    pid_t pid = ::fork();
    if (pid != 0) {
        childPid = pid; // -1 when fork failed: run without spinners
        return;
    }
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    sched_param param{};
    ::sched_setscheduler(0, SCHED_IDLE, &param);
    auto spin = [] {
        for (;;) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#elif defined(__aarch64__)
            asm volatile("yield");
#else
            asm volatile("" ::: "memory");
#endif
        }
    };
    for (int i = 1; i < cpus; ++i)
        std::thread(spin).detach();
    spin();
}

KeepAwake::~KeepAwake()
{
    if (childPid <= 0)
        return;
    ::kill(childPid, SIGKILL);
    int status = 0;
    ::waitpid(childPid, &status, 0);
}

bool
Daemon::start(const std::string &path, const std::vector<std::string> &args,
              std::string *error)
{
    int pipeFds[2];
    if (::pipe2(pipeFds, O_CLOEXEC) != 0) {
        *error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    std::vector<std::string> argvText = {path, "--port", "0"};
    argvText.insert(argvText.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : argvText)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid < 0) {
        *error = std::string("fork: ") + std::strerror(errno);
        ::close(pipeFds[0]);
        ::close(pipeFds[1]);
        return false;
    }
    if (pid == 0) {
        // Child: die with the benchmark, report the port on the pipe.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        ::dup2(pipeFds[1], STDOUT_FILENO);
        ::execv(argv[0], argv.data());
        _exit(127);
    }
    ::close(pipeFds[1]);
    childPid = pid;

    // Read the "listening on http://127.0.0.1:<port>" line.
    std::string out;
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (out.find('\n') == std::string::npos) {
        int left = int(std::chrono::duration_cast<std::chrono::milliseconds>(
                           deadline - std::chrono::steady_clock::now())
                           .count());
        if (left <= 0)
            break;
        pollfd pfd{};
        pfd.fd = pipeFds[0];
        pfd.events = POLLIN;
        int rc = ::poll(&pfd, 1, left);
        if (rc < 0 && errno == EINTR)
            continue;
        if (rc <= 0)
            break;
        char buf[256];
        ssize_t n = ::read(pipeFds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        out.append(buf, std::size_t(n));
    }
    ::close(pipeFds[0]);
    std::size_t colon = out.rfind(':');
    if (out.find("listening on") == std::string::npos ||
        colon == std::string::npos) {
        *error = "daemon did not report a port (output: '" + out + "')";
        stop();
        return false;
    }
    boundPort = std::atoi(out.c_str() + colon + 1);
    return boundPort > 0;
}

void
Daemon::stop()
{
    if (childPid <= 0)
        return;
    ::kill(childPid, SIGTERM);
    int status = 0;
    for (int i = 0; i < 200; ++i) {
        if (::waitpid(childPid, &status, WNOHANG) == childPid) {
            childPid = -1;
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ::kill(childPid, SIGKILL);
    ::waitpid(childPid, &status, 0);
    childPid = -1;
}

bool
httpRequest(int port, const std::string &method, const std::string &target,
            const std::string &body, Reply &reply)
{
    int fd = connectLoopback(port);
    if (fd < 0)
        return false;
    std::string wire = method + " " + target + " HTTP/1.1\r\n" +
                       "Host: 127.0.0.1\r\n";
    if (method == "POST")
        wire += "Content-Type: application/json\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n";
    wire += "\r\n";
    wire += body;
    bool ok = sendAll(fd, wire.data(), wire.size());

    // Read the head, then exactly Content-Length body bytes.
    std::string raw;
    std::size_t headEnd = std::string::npos;
    std::size_t total = std::string::npos;
    while (ok && (total == std::string::npos || raw.size() < total)) {
        char buf[16384];
        ssize_t n = balance::recvWithDeadline(fd, buf, sizeof(buf),
                                              recvDeadlineMs);
        if (n <= 0) {
            ok = false;
            break;
        }
        raw.append(buf, std::size_t(n));
        if (headEnd == std::string::npos &&
            (headEnd = raw.find("\r\n\r\n")) != std::string::npos) {
            const std::string name = "\r\nContent-Length: ";
            std::size_t at = raw.find(name);
            if (at == std::string::npos || at > headEnd) {
                ok = false;
                break;
            }
            total = headEnd + 4 +
                    std::size_t(std::atoll(raw.c_str() + at + name.size()));
        }
    }
    // Close abortively: the many short connections of a run would
    // otherwise leave tens of thousands of TIME_WAIT entries behind,
    // and connect() slows down as they pile up across runs.
    linger abort{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
    ::close(fd);
    if (!ok)
        return false;

    std::size_t space = raw.find(' ');
    if (space == std::string::npos || space > headEnd)
        return false;
    reply.status = std::atoi(raw.c_str() + space + 1);
    reply.body = raw.substr(headEnd + 4);
    reply.cacheHeader.clear();
    const std::string name = "\r\nX-Balance-Cache: ";
    std::size_t at = raw.find(name);
    if (at != std::string::npos && at < headEnd) {
        std::size_t from = at + name.size();
        reply.cacheHeader = raw.substr(from, raw.find("\r\n", from) - from);
    }
    return true;
}

bool
FrameConnection::exchange(const std::string &payload, Reply &reply)
{
    if (fd < 0)
        fd = connectLoopback(port);
    if (fd < 0)
        return false;
    char header[8] = {'S', 'B', 'P', '1'};
    std::uint32_t len = std::uint32_t(payload.size());
    header[4] = char((len >> 24) & 0xff);
    header[5] = char((len >> 16) & 0xff);
    header[6] = char((len >> 8) & 0xff);
    header[7] = char(len & 0xff);
    std::string wire(header, sizeof(header));
    wire += payload;
    bool ok = sendAll(fd, wire.data(), wire.size());
    // Armed after the send: sending leaves quick-ACK mode again.
    int one = 1;
    if (ok && quickAck)
        ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    char head[8];
    ok = ok && recvExact(fd, head, sizeof(head)) &&
              std::memcmp(head, "SBP1", 4) == 0;
    if (ok) {
        std::uint32_t n = (std::uint32_t(std::uint8_t(head[4])) << 24) |
                          (std::uint32_t(std::uint8_t(head[5])) << 16) |
                          (std::uint32_t(std::uint8_t(head[6])) << 8) |
                          std::uint32_t(std::uint8_t(head[7]));
        reply.body.assign(n, '\0');
        ok = recvExact(fd, reply.body.data(), n);
    }
    if (!ok) {
        close();
        return false;
    }
    reply.status = 200;
    reply.cacheHeader.clear();
    return true;
}

void
FrameConnection::close()
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

} // namespace perfbench
