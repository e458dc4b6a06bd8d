// The open-loop load generator of the served workload: ONE thread driving a
// few persistent loopback connections with non-blocking sockets and ppoll.
// Requests are sent when due, never gated on responses; each request's
// latency is timed from its due time, so a stall also charges the requests
// queued behind it, and the generator reports how late it sent.
//
// The client sets TCP_NODELAY on its own sockets, as real drivers do. It does
// nothing that changes how the server's sends are acknowledged.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One request and, once answered, its response.
struct Request {
  std::string query;  // e.g. "Q6"
  double due_ns = 0;
  // Filled by the generator.
  double sent_ns = 0;
  double done_ns = 0;  // 0 = no response (lost or timed out)
  bool ok = false;     // an OK block (else ERR or none)
  std::string header;  // first line of the response block
  std::string body;    // ROW lines of an OK block, as received
  double wall_ns = 0;        // OK header: executor wall time
  double queue_wait_ns = 0;  // OK header: admission queue wait
};

class LoadGen {
 public:
  LoadGen() = default;
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Opens `conns` connections to 127.0.0.1:port. False on failure.
  bool Connect(int port, int conns);

  /// Sends request i on connection i % conns at its due time and collects
  /// every response, waiting at most `drain_s` past the last due time.
  /// Every `sample_ns` it appends the number of unanswered sent requests to
  /// `outstanding`. Spans named "service.request" are added per response.
  void Run(std::vector<Request>* reqs, double drain_s, double sample_ns,
           std::vector<double>* outstanding);

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
  };
  bool Flush(Conn* c);
  void ParseBlocks(Conn* c, std::vector<Request>* reqs, uint64_t tag_base,
                   double now, uint64_t* received);

  std::vector<Conn> conns_;
  uint64_t next_tag_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
