#include "daemon/event_source.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdlib>
#include <cstring>

#include "common/logging.hpp"
#include "spl/spl.hpp"

namespace swmon {
namespace {

constexpr char kTraceMagic[4] = {'S', 'W', 'M', 'T'};

bool SetError(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

bool ParseU64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  const int base =
      text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')
          ? 16
          : 10;
  char* end = nullptr;
  const std::string owned(text);
  *out = std::strtoull(owned.c_str(), &end, base);
  return end && *end == '\0';
}

/// Validates a 16-byte SWMT stream/file header; on success the caller
/// starts feeding everything after it to a TraceEventDecoder.
bool CheckStreamHeader(const std::uint8_t* header, std::string* error) {
  if (std::memcmp(header, kTraceMagic, 4) != 0)
    return SetError(error, "stream is not a swmon trace");
  std::uint32_t version;
  std::memcpy(&version, header + 4, 4);  // LE file, LE hosts only ingest live
  if constexpr (std::endian::native != std::endian::little)
    version = __builtin_bswap32(version);
  if (version == 0 || version > 2)
    return SetError(error, "unsupported trace version");
  return true;
}

}  // namespace

bool ParseEventLine(const std::string& line, DataplaneEvent& out,
                    std::string* error) {
  if (error) error->clear();
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && std::isspace(line[pos])) ++pos;
    std::size_t end = pos;
    while (end < line.size() && !std::isspace(line[end])) ++end;
    if (end > pos) tokens.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  if (tokens.empty() || tokens[0][0] == '#') return false;  // blank/comment
  if (tokens.size() < 2)
    return SetError(error, "expected '<type> <time_ns> [field=value]...'");

  out = DataplaneEvent{};
  if (tokens[0] == "arrival") {
    out.type = DataplaneEventType::kArrival;
  } else if (tokens[0] == "egress") {
    out.type = DataplaneEventType::kEgress;
  } else if (tokens[0] == "link") {
    out.type = DataplaneEventType::kLinkStatus;
  } else {
    return SetError(error, "unknown event type '" + tokens[0] + "'");
  }
  std::uint64_t time_ns;
  if (!ParseU64(tokens[1], &time_ns))
    return SetError(error, "bad timestamp '" + tokens[1] + "'");
  out.time = SimTime::FromNanos(static_cast<std::int64_t>(time_ns));

  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos)
      return SetError(error, "expected key=value, got '" + tok + "'");
    const std::string key = tok.substr(0, eq);
    std::uint64_t value;
    if (!ParseU64(tok.substr(eq + 1), &value))
      return SetError(error, "bad value in '" + tok + "'");
    if (key == "bytes") {
      out.packet_bytes = static_cast<std::uint32_t>(value);
      continue;
    }
    const auto id = FieldIdByName(key);
    if (!id) return SetError(error, "unknown field '" + key + "'");
    out.fields.Set(*id, value);
  }
  return true;
}

// -------------------------------------------------------- TraceTailer

TraceTailer::TraceTailer(std::string path)
    : path_(std::move(path)), name_("tail:" + path_) {}

TraceTailer::~TraceTailer() {
  if (fd_ >= 0) ::close(fd_);
}

bool TraceTailer::ReadHeader() {
  std::uint8_t header[kTraceHeaderBytes];
  const ssize_t r = ::pread(fd_, header, sizeof(header), 0);
  if (r < 0) {
    error_ = "read " + path_ + " failed: " + std::strerror(errno);
    return false;
  }
  if (static_cast<std::size_t>(r) < sizeof(header)) return true;  // wait
  if (!CheckStreamHeader(header, &error_)) return false;
  header_ok_ = true;
  offset_ = kTraceHeaderBytes;
  return true;
}

bool TraceTailer::Poll(std::vector<DataplaneEvent>& out,
                       std::size_t max_events) {
  if (!error_.empty()) return false;
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_RDONLY);
    if (fd_ < 0) return true;  // not created yet — keep waiting
  }
  if (!header_ok_) {
    if (!ReadHeader()) return false;
    if (!header_ok_) return true;
  }
  std::uint8_t chunk[1 << 16];
  DataplaneEvent ev;
  std::size_t taken = 0;
  for (;;) {
    // Decode what is buffered before reading more, so a spent budget
    // leaves the rest of the file unread.
    auto res = TraceEventDecoder::Result::kNeedMore;
    while (taken < max_events &&
           (res = decoder_.Next(ev)) == TraceEventDecoder::Result::kEvent) {
      out.push_back(ev);
      ++taken;
    }
    if (res == TraceEventDecoder::Result::kCorrupt) {
      error_ = path_ + ": " + decoder_.error();
      return false;
    }
    if (taken == max_events) return true;
    const ssize_t r = ::pread(fd_, chunk, sizeof(chunk), offset_);
    if (r < 0) {
      error_ = "read " + path_ + " failed: " + std::strerror(errno);
      return false;
    }
    if (r == 0) return true;  // caught up with the writer
    decoder_.Feed(chunk, static_cast<std::size_t>(r));
    offset_ += static_cast<std::uint64_t>(r);
  }
}

// ------------------------------------------------------- SocketSource

SocketSource::SocketSource(SocketSourceOptions options)
    : options_(std::move(options)) {}

SocketSource::~SocketSource() { Stop(); }

bool SocketSource::Start(std::string* error) {
  auto fail = [&](const std::string& msg) {
    Stop();
    return SetError(error, msg + ": " + std::strerror(errno));
  };
  stopping_.store(false, std::memory_order_release);
  if (options_.tcp_enabled) {
    tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listen_fd_ < 0) return fail("socket");
    const int one = 1;
    ::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (::bind(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(tcp_listen_fd_, 16) < 0)
      return fail("bind/listen 127.0.0.1:" +
                  std::to_string(options_.tcp_port));
    socklen_t len = sizeof(addr);
    ::getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    tcp_port_ = ntohs(addr.sin_port);
    const int fd = tcp_listen_fd_;
    accept_threads_.emplace_back([this, fd] { AcceptLoop(fd); });
  }
  if (!options_.unix_path.empty()) {
    unix_listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_listen_fd_ < 0) return fail("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path))
      return SetError(error, "unix socket path too long");
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_path.c_str());  // stale socket from a prior run
    if (::bind(unix_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(unix_listen_fd_, 16) < 0)
      return fail("bind/listen " + options_.unix_path);
    const int fd = unix_listen_fd_;
    accept_threads_.emplace_back([this, fd] { AcceptLoop(fd); });
  }
  if (tcp_listen_fd_ < 0 && unix_listen_fd_ < 0)
    return SetError(error, "socket source has no listener configured");
  return true;
}

void SocketSource::Stop() {
  stopping_.store(true, std::memory_order_release);
  for (int* fd : {&tcp_listen_fd_, &unix_listen_fd_}) {
    if (*fd >= 0) {
      ::shutdown(*fd, SHUT_RDWR);
      ::close(*fd);
      *fd = -1;
    }
  }
  // Listeners first: once joined, no new reader threads can appear.
  for (auto& t : accept_threads_)
    if (t.joinable()) t.join();
  accept_threads_.clear();
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    readers.swap(reader_threads_);
  }
  space_cv_.notify_all();
  for (auto& t : readers)
    if (t.joinable()) t.join();
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void SocketSource::AcceptLoop(int listen_fd) {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire) || errno != EINTR) return;
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // One thread per connection: ingestion clients are few (a tap per
    // switch), and a blocked slow producer must not stall other clients.
    std::lock_guard<std::mutex> lock(mu_);
    connection_fds_.push_back(fd);
    reader_threads_.emplace_back([this, fd] { ReadConnection(fd); });
  }
}

template <typename Fill>
bool SocketSource::Publish(Fill&& fill) {
  std::lock_guard<std::mutex> turn(producer_mu_);
  for (;;) {
    std::uint64_t room;
    {
      std::unique_lock<std::mutex> lock(mu_);
      space_cv_.wait(lock, [this] {
        return tail_ - head_ < kRingSlots ||
               stopping_.load(std::memory_order_acquire);
      });
      if (stopping_.load(std::memory_order_acquire)) return false;
      if (!ring_) ring_ = std::make_unique<DataplaneEvent[]>(kRingSlots);
      room = kRingSlots - (tail_ - head_);
    }
    // Decode outside mu_: Poll reads no slot past tail_, and only this
    // reader moves tail_.
    std::uint64_t n = 0;
    bool more = true;
    while (n < room && (more = fill(ring_[(tail_ + n) % kRingSlots]))) ++n;
    if (n != 0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        tail_ += n;
      }
      events_ingested_.fetch_add(n, std::memory_order_relaxed);
    }
    if (!more) return true;
  }
}

void SocketSource::ReadConnection(int fd) {
  // A text line longer than this is not a protocol the daemon speaks —
  // cap it so a newline-less client cannot grow the buffer unboundedly.
  constexpr std::size_t kMaxTextLine = 1 << 16;

  // Sniff the first bytes: an SWMT header selects the binary trace
  // protocol, anything else is treated as the text line protocol.
  enum class Mode { kUnknown, kBinary, kText } mode = Mode::kUnknown;
  std::string pending;  // bytes sniffed so far, then the unterminated line
  TraceEventDecoder decoder;
  bool drop = false;

  // Publishes every complete line in `pending` and keeps the unterminated
  // rest. False on a malformed line; the lines before it are published.
  const auto publish_lines = [&] {
    std::size_t begin = 0;
    bool bad = false;
    // Without a complete line there is nothing to publish: take no turn.
    if (pending.find('\n') != std::string::npos) {
      drop = !Publish([&](DataplaneEvent& slot) {
        std::size_t nl;
        while (!bad && (nl = pending.find('\n', begin)) != std::string::npos) {
          const std::string line = pending.substr(begin, nl - begin);
          begin = nl + 1;
          std::string line_error;
          if (ParseEventLine(line, slot, &line_error)) return true;
          if (!line_error.empty()) {
            SWMON_LOG_WARN("daemon", "socket: bad event line: %s",
                           line_error.c_str());
            bad = true;
          }
        }
        return false;
      });
      pending.erase(0, begin);
    }
    return !bad;
  };

  char chunk[1 << 16];
  ssize_t r;
  while (!drop && (r = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    const auto n = static_cast<std::size_t>(r);
    if (mode == Mode::kBinary) {
      decoder.Feed(reinterpret_cast<const std::uint8_t*>(chunk), n);
    } else {
      pending.append(chunk, n);
    }
    if (mode == Mode::kUnknown) {
      if (std::memcmp(pending.data(), kTraceMagic,
                      std::min<std::size_t>(pending.size(), 4)) != 0) {
        mode = Mode::kText;
      } else if (pending.size() < kTraceHeaderBytes) {
        continue;  // may still become a binary header
      } else {
        const auto* bytes =
            reinterpret_cast<const std::uint8_t*>(pending.data());
        std::string header_error;
        if (!CheckStreamHeader(bytes, &header_error)) {
          decode_errors_.fetch_add(1, std::memory_order_relaxed);
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        decoder.Feed(bytes + kTraceHeaderBytes,
                     pending.size() - kTraceHeaderBytes);
        pending.clear();
        mode = Mode::kBinary;
      }
    }
    if (mode == Mode::kBinary) {
      auto res = TraceEventDecoder::Result::kNeedMore;
      drop = !Publish([&](DataplaneEvent& slot) {
        return (res = decoder.Next(slot)) == TraceEventDecoder::Result::kEvent;
      });
      if (res == TraceEventDecoder::Result::kCorrupt) {
        SWMON_LOG_WARN("daemon", "socket: corrupt event stream: %s",
                       decoder.error().c_str());
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        drop = true;
      }
    } else if (!publish_lines()) {
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      drop = true;  // a malformed line poisons framing — drop the conn
    } else if (!drop && pending.size() > kMaxTextLine) {
      SWMON_LOG_WARN("daemon", "socket: text line exceeds %zu bytes",
                     kMaxTextLine);
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      drop = true;
    }
  }
  // Clean close with bytes still pending: either a final text line the
  // client forgot to newline-terminate (parse it — `echo -n | nc` works),
  // or a record the stream truncated mid-encoding (surface it instead of
  // silently desyncing).
  if (!drop && r == 0) {
    if (mode == Mode::kBinary) {
      if (decoder.pending_bytes() > 0) {
        SWMON_LOG_WARN("daemon",
                       "socket: stream closed mid-event (%zu bytes pending)",
                       decoder.pending_bytes());
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (!pending.empty()) {
      if (mode == Mode::kUnknown) {
        // 1..15 bytes that are a proper prefix of a binary header.
        SWMON_LOG_WARN("daemon", "socket: stream closed mid-header");
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
      } else {
        pending += '\n';
        if (!publish_lines())
          decode_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(mu_);
  connection_fds_.erase(
      std::remove(connection_fds_.begin(), connection_fds_.end(), fd),
      connection_fds_.end());
}

bool SocketSource::Poll(std::vector<DataplaneEvent>& out,
                        std::size_t max_events) {
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t n = std::min<std::uint64_t>(max_events, tail_ - head_);
  if (n == 0) return true;
  const std::size_t first = head_ % kRingSlots;
  const std::size_t run = std::min<std::size_t>(n, kRingSlots - first);
  const DataplaneEvent* slots = ring_.get();
  out.insert(out.end(), slots + first, slots + first + run);
  out.insert(out.end(), slots, slots + (n - run));
  head_ += n;
  lock.unlock();
  space_cv_.notify_one();
  return true;
}

}  // namespace swmon
