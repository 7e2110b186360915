#include "atlasbench/src/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "atlasbench/src/measure.h"

namespace atlasbench {

namespace {

// Frame kinds of the client wire protocol (src/rt/node.h).
constexpr uint8_t kFrameMessage = 0;
constexpr uint8_t kFrameClientHello = 2;

// Incremental frame parser for one connection's reply stream.
class ReplyReader {
 public:
  // Appends bytes read from the socket.
  void Feed(const uint8_t* data, size_t n) { buf_.insert(buf_.end(), data, data + n); }

  // Next complete ClientReply; 0 = need more bytes, 1 = got one, -1 = bad frame.
  int Next(msg::ClientReply* out) {
    if (buf_.size() - pos_ < 4) {
      Compact();
      return 0;
    }
    uint32_t len;
    std::memcpy(&len, buf_.data() + pos_, 4);
    if (buf_.size() - pos_ - 4 < len) {
      Compact();
      return 0;
    }
    codec::Reader r(buf_.data() + pos_ + 4, len);
    pos_ += 4 + len;
    msg::Message m;
    if (r.U8() != kFrameMessage || !msg::Decode(r, m)) {
      return -1;
    }
    auto* reply = msg::get_if<msg::ClientReply>(&m);
    if (reply == nullptr) {
      return -1;
    }
    *out = std::move(*reply);
    return 1;
  }

 private:
  void Compact() {
    if (pos_ > 0) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
      pos_ = 0;
    }
  }

  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
};

}  // namespace

void AppendFrame(std::vector<uint8_t>& out, codec::Writer& w, const smr::Command& cmd) {
  w.Clear();
  w.U8(kFrameMessage);
  msg::ClientRequest req;
  req.cmd = cmd;
  msg::Encode(w, msg::Message{std::move(req)});
  uint32_t len = static_cast<uint32_t>(w.size());
  size_t at = out.size();
  out.resize(at + 4 + len);
  std::memcpy(out.data() + at, &len, 4);
  std::memcpy(out.data() + at + 4, w.buffer().data(), len);
}

bool WriteAll(int fd, const uint8_t* data, size_t n) {
  while (n > 0) {
    // MSG_NOSIGNAL: a replica that drops the connection fails the run through
    // the return value instead of killing the generator with SIGPIPE.
    ssize_t k = send(fd, data, n, MSG_NOSIGNAL);
    if (k < 0 && errno == EINTR) {
      continue;
    }
    if (k <= 0) {
      return false;
    }
    data += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

// Connects and sends the client hello; -1 on failure.
int Dial(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const uint8_t hello[5] = {1, 0, 0, 0, kFrameClientHello};
  if (!WriteAll(fd, hello, sizeof(hello))) {
    close(fd);
    return -1;
  }
  return fd;
}

// Blocks until one reply arrives on fd (set-up probes); false on error/timeout.
bool AwaitReply(int fd, int64_t deadline_ns) {
  ReplyReader reader;
  msg::ClientReply reply;
  while (NowNs() < deadline_ns) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, 50) <= 0) {
      continue;
    }
    uint8_t buf[4096];
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) {
      return false;
    }
    reader.Feed(buf, static_cast<size_t>(n));
    int got = reader.Next(&reply);
    if (got != 0) {
      return got == 1 && !reply.dropped;
    }
  }
  return false;
}

std::string StampValue(const std::string& key, uint64_t client, uint64_t seq,
                       size_t size) {
  std::string v = key + "|" + std::to_string(client) + ":" + std::to_string(seq) + "|";
  if (v.size() < size) {
    v.resize(size, 'x');
  }
  return v;
}

void Generator::SendLoop() {
  sender_tid_.store(CurrentTid());
  std::vector<std::vector<uint8_t>> out(kNodes);
  codec::Writer w;
  uint64_t next_seq[kNodes] = {1, 1, 1};
  Phase p;
  for (size_t k = 0; schedule_.WaitPhase(k, &p); k++) {
    if (p.first + p.count > capacity_ || k >= kMaxPhases) {
      std::fprintf(stderr, "atlasbench: the schedule outgrew the generator\n");
      std::abort();
    }
    uint64_t i = p.first;
    const uint64_t end = p.first + p.count;
    while (i < end) {
      int64_t due = p.DueNs(i);
      int64_t now = NowNs() - origin_ns_;
      if (due > now) {
        SleepUntilNs(origin_ns_ + due);
        now = NowNs() - origin_ns_;
      }
      while (i < end && (due = p.DueNs(i)) <= now) {
        uint32_t c = static_cast<uint32_t>(i % kNodes);
        uint64_t client = c + 1;
        uint64_t seq = next_seq[c]++;
        smr::Command cmd = workload_->Next(client, seq, rngs_[c]);
        Slot& slot = slots_[i];
        slot.key_hash = std::hash<std::string>()(cmd.key);
        slot.due_ns = due;
        slot.phase = static_cast<uint32_t>(k);
        slot.is_put = cmd.op == smr::Op::kPut;
        slot.status = kPending;
        slot.recv_ns = 0;
        if (slot.is_put) {
          cmd.value = StampValue(cmd.key, client, seq, value_bytes_);
        }
        AppendFrame(out[c], w, cmd);
        if (i >= measured_from_) {
          late_us_.Record((now - due) / 1000);
        }
        i++;
      }
      filled_ = i;
      for (uint32_t c = 0; c < kNodes; c++) {
        if (out[c].empty()) {
          continue;
        }
        // Publish before writing: a reply can only follow the write.
        sent_[c].store(next_seq[c] - 1, std::memory_order_release);
        if (!WriteAll(fds_[c], out[c].data(), out[c].size())) {
          send_failed_.store(true);
          return;
        }
        out[c].clear();
      }
    }
  }
}

void Generator::ReceiveLoop() {
  receiver_tid_.store(CurrentTid());
  std::vector<ReplyReader> readers(kNodes);
  std::vector<uint8_t> buf(256 * 1024);
  struct pollfd pfds[kNodes];
  for (uint32_t c = 0; c < kNodes; c++) {
    pfds[c] = {fds_[c], POLLIN, 0};
  }
  msg::ClientReply reply;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (poll(pfds, kNodes, 20) <= 0) {
      continue;
    }
    for (uint32_t c = 0; c < kNodes; c++) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      ssize_t n = read(fds_[c], buf.data(), buf.size());
      if (n <= 0) {
        pfds[c].fd = -1;  // closed by the node: whatever is pending stays failed
        continue;
      }
      int64_t now = NowNs() - origin_ns_;
      readers[c].Feed(buf.data(), static_cast<size_t>(n));
      int got;
      while ((got = readers[c].Next(&reply)) != 0) {
        if (got < 0) {
          bad_frames_++;
          continue;
        }
        Handle(c, reply, now);
      }
    }
  }
}

void Generator::Handle(uint32_t c, const msg::ClientReply& reply, int64_t now) {
  if (reply.client != c + 1 || reply.seq == 0 ||
      reply.seq > sent_[c].load(std::memory_order_acquire)) {
    unsolicited_++;
    return;
  }
  uint64_t i = (reply.seq - 1) * kNodes + c;
  Slot& slot = slots_[i];
  if (slot.status != kPending) {
    slot.status = kDuplicate;
    return;
  }
  slot.recv_ns = now;
  if (reply.dropped) {
    slot.status = kDropped;
  } else {
    slot.status = ValidReply(i, reply.value) ? kOk : kWrongValue;
  }
  if (slot.status == kOk && now - slot.due_ns <= on_time_ns_) {
    on_time_[slot.phase].fetch_add(1, std::memory_order_release);
  }
  handled_.fetch_add(1, std::memory_order_release);
}

// A put answers ""; a get answers "" (never written) or a value some sent
// put stamped for the same key.
bool Generator::ValidReply(uint64_t i, const std::string& value) const {
  if (slots_[i].is_put || value.empty()) {
    return value.empty();
  }
  size_t bar = value.find('|');
  size_t colon = value.find(':', bar);
  size_t end = value.find('|', colon);
  if (bar == std::string::npos || colon == std::string::npos ||
      end == std::string::npos) {
    return false;
  }
  uint64_t client = std::strtoull(value.c_str() + bar + 1, nullptr, 10);
  uint64_t seq = std::strtoull(value.c_str() + colon + 1, nullptr, 10);
  if (client < 1 || client > kNodes || seq == 0 ||
      seq > sent_[client - 1].load(std::memory_order_acquire)) {
    return false;
  }
  const Slot& writer = slots_[(seq - 1) * kNodes + (client - 1)];
  uint64_t key_hash = std::hash<std::string>()(value.substr(0, bar));
  return writer.is_put && writer.key_hash == key_hash && key_hash == slots_[i].key_hash;
}

std::vector<ReqOutcome> Generator::outcome() const {
  std::vector<ReqOutcome> out(filled_);
  for (uint64_t i = 0; i < out.size(); i++) {
    out[i].recv_ns = slots_[i].recv_ns;
    out[i].status = slots_[i].status;
  }
  return out;
}

}  // namespace atlasbench
