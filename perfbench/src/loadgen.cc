#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "spans.h"
#include "util/hash_clock.h"

namespace perfbench {

namespace {

double HeaderField(const std::string& header, const char* key) {
  const size_t p = header.find(key);
  if (p == std::string::npos) return 0;
  return std::strtod(header.c_str() + p + std::strlen(key), nullptr);
}

}  // namespace

LoadGen::~LoadGen() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

bool LoadGen::Connect(int port, int conns) {
  for (int i = 0; i < conns; ++i) {
    Conn c;
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0) return false;
    conns_.push_back(c);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  return true;
}

bool LoadGen::Flush(Conn* c) {
  while (!c->out.empty()) {
    const ssize_t n = ::send(c->fd, c->out.data(), c->out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c->out.erase(0, static_cast<size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

void LoadGen::ParseBlocks(Conn* c, std::vector<Request>* reqs,
                          uint64_t tag_base, double now, uint64_t* received) {
  size_t end;
  while ((end = c->in.find("\nEND\n")) != std::string::npos) {
    const std::string block = c->in.substr(0, end + 1);
    c->in.erase(0, end + 5);
    const size_t nl = block.find('\n');
    const std::string header = block.substr(0, nl);
    const size_t tp = header.find(" tag=");
    if (tp == std::string::npos) continue;
    const uint64_t tag = std::strtoull(header.c_str() + tp + 5, nullptr, 10);
    if (tag < tag_base || tag - tag_base >= reqs->size()) continue;
    Request& r = (*reqs)[tag - tag_base];
    if (r.done_ns != 0) continue;
    r.done_ns = now;
    r.header = header;
    r.ok = header.rfind("OK ", 0) == 0;
    if (r.ok) {
      r.body = block.substr(nl + 1);
      r.wall_ns = HeaderField(header, " wall_ns=");
      r.queue_wait_ns = HeaderField(header, " queue_wait_ns=");
    }
    Spans().Add("service.request", r.sent_ns, now, tag);
    ++*received;
  }
}

void LoadGen::Run(std::vector<Request>* reqs, double drain_s, double sample_ns,
                  std::vector<double>* outstanding) {
  const size_t n = reqs->size();
  const size_t nc = conns_.size();
  if (n == 0 || nc == 0) return;
  const uint64_t tag_base = next_tag_;
  next_tag_ += n;
  const double drain_deadline = reqs->back().due_ns + drain_s * 1e9;
  double next_sample = reqs->front().due_ns + sample_ns;
  std::vector<pollfd> fds(nc);
  std::vector<bool> alive(nc, true);
  size_t sent = 0;
  uint64_t received = 0;
  char buf[1 << 16];

  while (received < n) {
    double now = apq::NowNs();
    while (sent < n && (*reqs)[sent].due_ns <= now) {
      Request& r = (*reqs)[sent];
      Conn& c = conns_[sent % nc];
      c.out += "RUN " + r.query + " tag=" + std::to_string(tag_base + sent) + "\n";
      r.sent_ns = now;
      if (alive[sent % nc]) alive[sent % nc] = Flush(&c);
      ++sent;
      now = apq::NowNs();
    }
    if (sent == n && now >= drain_deadline) break;
    while (sent < n && now >= next_sample) {
      if (outstanding != nullptr) {
        outstanding->push_back(static_cast<double>(sent - received));
      }
      next_sample += sample_ns;
    }
    double wake = sent < n ? std::min((*reqs)[sent].due_ns, next_sample)
                           : drain_deadline;
    const double wait_ns = std::max(0.0, wake - now);
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait_ns / 1e9);
    ts.tv_nsec = static_cast<long>(wait_ns - static_cast<double>(ts.tv_sec) * 1e9);
    for (size_t i = 0; i < nc; ++i) {
      fds[i].fd = alive[i] ? conns_[i].fd : -1;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    if (::ppoll(fds.data(), nc, &ts, nullptr) <= 0) continue;
    for (size_t i = 0; i < nc; ++i) {
      if (fds[i].revents == 0) continue;
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) alive[i] = Flush(&c);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        for (;;) {
          const ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
          if (got > 0) {
            c.in.append(buf, static_cast<size_t>(got));
            continue;
          }
          if (got < 0 && errno == EINTR) continue;
          if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            alive[i] = false;  // closed: its unanswered requests time out
          }
          break;
        }
        ParseBlocks(&c, reqs, tag_base, apq::NowNs(), &received);
      }
    }
  }
}

}  // namespace perfbench
