#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

using semilocal::FrameDecoder;
using semilocal::PlotAssembler;
using semilocal::ProtocolError;
using semilocal::Response;
using semilocal::Status;

void stamp_request_id(std::string& payload, std::uint64_t id) {
  if (payload.size() < 9) throw std::invalid_argument("stamp_request_id: short payload");
  for (int i = 0; i < 8; ++i) payload[1 + i] = static_cast<char>((id >> (8 * i)) & 0xff);
}

namespace {

constexpr std::size_t kSampleResponses = 256;
/// After the window, how long the client waits for what is still owed.
constexpr std::uint64_t kDrainNs = 10'000'000'000;

struct Slot {
  std::size_t record = 0;
  Outgoing out;
  std::unique_ptr<PlotAssembler> grid;
};

struct Conn {
  int fd = -1;
  FrameDecoder decoder;
  std::deque<Slot> outstanding;
  std::string out;
  std::size_t out_off = 0;
  bool watching_out = false;
  bool closed = false;
};

class LoadRunner {
 public:
  explicit LoadRunner(const LoadOptions& options) : options_(options) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) throw std::runtime_error("client: epoll_create1 failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    conns_.resize(options.connections);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        if (fd >= 0) ::close(fd);
        close_all();
        throw std::runtime_error("client: connect failed");
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
      conns_[i].fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    }
  }
  ~LoadRunner() { close_all(); }
  LoadRunner(const LoadRunner&) = delete;
  LoadRunner& operator=(const LoadRunner&) = delete;

  LoadResult run() {
    const auto window_ns = static_cast<std::uint64_t>(options_.seconds * 1e9);
    if (options_.closed_loop) {
      run_closed(window_ns);
    } else {
      run_open(window_ns);
    }
    // Drain: nothing new is sent; wait for what is still owed.
    const std::uint64_t deadline = mono_ns() + kDrainNs;
    while (owed() && mono_ns() < deadline) poll(5'000'000);
    close_all();
    return std::move(result_);
  }

 private:
  void run_open(std::uint64_t window_ns) {
    const double interval_ns = 1e9 / options_.rate;
    result_.start_ns = mono_ns() + 1'000'000;
    result_.end_ns = result_.start_ns + window_ns;
    const auto due = [&](std::uint64_t i) {
      return result_.start_ns + static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
    };
    std::uint64_t i = 0;
    while (due(i) < result_.end_ns) {
      const std::uint64_t now = mono_ns();
      while (due(i) <= now && due(i) < result_.end_ns) {
        send(i % conns_.size(), i, due(i));
        ++i;
      }
      const std::uint64_t next = due(i);
      const std::uint64_t after = mono_ns();
      poll(next > after ? std::min<std::uint64_t>(next - after, 5'000'000) : 0);
    }
  }

  void run_closed(std::uint64_t window_ns) {
    result_.start_ns = mono_ns();
    result_.end_ns = result_.start_ns + window_ns;
    for (std::size_t w = 0; w < options_.window; ++w) {
      for (std::size_t c = 0; c < conns_.size(); ++c) send(c, next_index_++, mono_ns());
    }
    while (mono_ns() < result_.end_ns) poll(5'000'000);
  }

  bool owed() const {
    for (const Conn& conn : conns_) {
      if (!conn.closed && !conn.outstanding.empty()) return true;
    }
    return false;
  }

  void send(std::size_t c, std::uint64_t i, std::uint64_t due_ns) {
    Conn& conn = conns_[c];
    Outgoing out = options_.next(i);
    RequestRecord record;
    record.id = kFirstRequestId + i;
    record.tag = out.tag;
    record.cls = out.cls;
    record.due_ns = due_ns;
    record.send_ns = mono_ns();
    if (!options_.closed_loop) {
      result_.gen_late_ms.push_back(static_cast<double>(record.send_ns - due_ns) / 1e6);
    }
    if (conn.closed) {  // the server hung up earlier: attempted, never answered
      result_.records.push_back(record);
      return;
    }
    stamp_request_id(out.payload, record.id);
    result_.request_bytes += out.payload.size();
    conn.out += semilocal::frame_payload(out.payload);
    out.payload.clear();  // the slot keeps only what verify() needs
    Slot slot;
    slot.record = result_.records.size();
    if (out.cls == OpClass::kPlot) {
      slot.grid = std::make_unique<PlotAssembler>(out.plot_rows, out.plot_cols, 16);
    }
    slot.out = std::move(out);
    result_.records.push_back(record);
    conn.outstanding.push_back(std::move(slot));
    flush(c);
  }

  void flush(std::size_t c) {
    Conn& conn = conns_[c];
    while (!conn.closed && conn.out_off < conn.out.size()) {
      const long w = ::send(conn.fd, conn.out.data() + conn.out_off,
                            conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (w > 0) {
        conn.out_off += static_cast<std::size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        close_conn(c);
        return;
      }
    }
    if (conn.closed) return;
    const bool pending = conn.out_off < conn.out.size();
    if (!pending) {
      conn.out.clear();
      conn.out_off = 0;
    }
    if (pending != conn.watching_out) {
      epoll_event ev{};
      ev.events = EPOLLIN | (pending ? EPOLLOUT : 0u);
      ev.data.u64 = c;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
      conn.watching_out = pending;
    }
  }

  void poll(std::uint64_t timeout_ns) {
    if (result_.cpu.empty() || mono_ns() - result_.cpu.back().at_ns >= 100'000'000) {
      result_.cpu.push_back(sample_cpu());
    }
    epoll_event events[64];
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    const int n = ::epoll_pwait2(epoll_fd_, events, 64, &ts, nullptr);
    for (int k = 0; k < n; ++k) {
      const auto c = static_cast<std::size_t>(events[k].data.u64);
      if (conns_[c].closed) continue;
      if ((events[k].events & EPOLLOUT) != 0) flush(c);
      if ((events[k].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) on_readable(c);
    }
  }

  void on_readable(std::size_t c) {
    char buf[1 << 16];
    while (!conns_[c].closed) {
      const long n = ::read(conns_[c].fd, buf, sizeof(buf));
      if (n == 0) {
        close_conn(c);
        return;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) close_conn(c);
        return;
      }
      try {
        conns_[c].decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                               [&](std::string_view payload, bool) { on_frame(c, payload); });
      } catch (const ProtocolError&) {
        close_conn(c);
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof(buf)) return;
    }
  }

  void on_frame(std::size_t c, std::string_view payload) {
    Conn& conn = conns_[c];
    if (conn.closed) return;
    if (conn.outstanding.empty()) throw ProtocolError("client: unsolicited frame");
    const Response response = semilocal::decode_response(payload);
    Slot& slot = conn.outstanding.front();
    if (slot.grid && response.status == Status::kOk) slot.grid->feed(response);
    if (!semilocal::terminal_response_frame(response)) return;

    RequestRecord& record = result_.records[slot.record];
    record.done_ns = mono_ns();
    record.shard = response.shard;
    if (result_.sample_responses.size() < kSampleResponses) {
      result_.sample_responses.emplace_back(payload);
    }
    switch (response.status) {
      case Status::kOk:
        record.outcome = Outcome::kOk;
        if (slot.grid && !slot.grid->complete()) {
          ++result_.wrong;  // a stream that ended short of its grid
        } else if (!options_.verify(slot.out, response, slot.grid.get())) {
          ++result_.wrong;
        }
        break;
      case Status::kOverloaded:
        record.outcome = Outcome::kRetryAfter;
        break;
      default:
        record.outcome = Outcome::kError;
        break;
    }
    conn.outstanding.pop_front();
    if (options_.closed_loop && record.done_ns < result_.end_ns) {
      send(c, next_index_++, mono_ns());
    }
  }

  void close_conn(std::size_t c) {
    Conn& conn = conns_[c];
    if (conn.closed) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
    conn.closed = true;
    conn.outstanding.clear();  // their records keep Outcome::kBroken
  }

  void close_all() {
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (conns_[c].fd >= 0) close_conn(c);
    }
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = -1;
  }

  const LoadOptions& options_;
  int epoll_fd_ = -1;
  std::deque<Conn> conns_;  // deque: Conn is not copyable
  std::uint64_t next_index_ = 0;
  LoadResult result_;
};

}  // namespace

LoadResult run_load(const LoadOptions& options) {
  if (options.connections == 0 || !options.next || !options.verify) {
    throw std::invalid_argument("run_load: connections, next and verify are required");
  }
  LoadRunner runner(options);
  return runner.run();
}

}  // namespace perfbench
