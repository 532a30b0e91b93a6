// The wire-protocol server: aesip-wire-v1 sessions mapped onto farm::Farm.
//
// Event-loop threading (ServerConfig::threads): N threads run N copies of
// one event loop — read, decode, respond, flush — and nothing else. Loop 0
// runs on the serving thread (run()'s caller, or start()'s thread) and also
// accepts, dealing each new connection round-robin into one loop's inbox,
// its own included. From then on that loop owns the connection outright:
// no locks on the hot path, no sharing — a connection lives its whole life
// on one loop, the same exclusive-ownership rule the farm uses for engine
// state. Every loop sleeps in one place: on the oldest in-flight future
// when work is pending, else on its own epoll set, which it keeps in step
// with the connections it owns — an fd is added at adoption and deleted
// at close, before the fd itself is closed; loop 0 also watches the
// listener (every transport is socket-backed, loopback included). An idle
// loop costs O(ready) per wakeup, not O(watched) — that is what lets one
// process carry thousands of mostly-idle sessions. The loops meet the farm
// only through Farm::submit/try_submit and the std::future each returns — the
// same decoupling the paper builds in hardware (bus I/O overlapped with
// cipher compute) reproduced at the service layer.
//
// Clustering (ServerConfig::cluster): several `aesip serve` processes
// shard sessions by consistent hash (cluster::Ring over gossiped
// membership, src/cluster/). Each server answers frames for sessions it
// owns; a frame for a session another node owns gets kRedirect carrying
// the owner's address, and the client reconnects there and replays its
// unanswered frames — zero loss across the move. kGossip frames (and a
// background gossip thread dialing one peer per interval) keep every
// node's membership view converging; a node whose last worker is
// quarantined stops serving, gossip spreads the fact, and its sessions
// re-home onto the survivors. Pinned connections (kFlagPinned on kHello)
// are never redirected — that is how gossip itself, and deliberate
// cross-node tooling, talk to a specific node.
//
// Per-session flow control: kHelloOk grants a window of at most
// `ServerConfig::window` unanswered data frames. A client that overruns it
// is cut off (kWindowExceeded) — the window is what bounds server memory
// per session. Inside the window, backpressure is invisible: when a
// worker queue refuses a frame (try_submit load-shed), the frame parks in
// the connection's deferred queue and the loop stops *reading* that
// connection until the farm catches up, which backs the pressure all the
// way into the transport (a full socket buffer stalls the client's
// writes). CTR payloads big enough to fan out take the blocking
// submit path instead, so the farm's chunk scatter stays available to
// network traffic.
//
// Sessions ride connections: kHello binds the connection to a session id,
// kSetKey installs the key that every later data frame on the connection
// uses, and the farm's LRU slot affinity (keyed by session id) keeps a
// session's traffic on the core already holding its key. Responses carry
// the request's seq and may complete out of order across sessions;
// kDrain is the in-order barrier (answered only after everything before
// it). request_drain() is the server-wide version: stop accepting, finish
// every in-flight frame, flush every byte, then return — zero accepted
// frames are lost on a graceful shutdown.
//
// Idle connections (no frame and no in-flight work for `idle_timeout`)
// are closed — a bounded-state rule, like the session table's LRU.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/director.hpp"
#include "farm/farm.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/histogram.hpp"
#include "obs/tracer.hpp"

namespace aesip::net {

/// Multi-node sharding: who this node is, who to gossip with.
struct ClusterConfig {
  std::string node_id;              ///< unique across the cluster
  std::string advertise;            ///< address peers/clients dial; defaults to
                                    ///< the resolved listen address
  std::vector<std::string> seeds;   ///< bootstrap peer addresses
  std::chrono::milliseconds gossip_interval{100};
  std::chrono::milliseconds suspect_after{1500};
  std::size_t ring_vnodes = 64;
};

struct ServerConfig {
  farm::FarmConfig farm;            ///< workers, engine kind, queue bounds
  int threads = 1;                  ///< event-loop threads; loop 0 runs on the
                                    ///< serving thread and also accepts
  std::size_t window = 32;          ///< max unanswered data frames per session
  std::size_t max_payload = kDefaultMaxPayload;
  std::chrono::milliseconds idle_timeout{30000};
  bool tracing = false;             ///< per-frame events into obs::Tracer rings
                                    ///< of 8192 events per loop
  /// Serve the fleet admin opcodes (kAdminSwapEngine & co). Off, every
  /// admin frame is refused with kAdminDisabled.
  bool admin = true;
  /// Join a multi-node cluster (gossip membership + session sharding).
  std::optional<ClusterConfig> cluster;
};

/// One event-loop thread's share of the work (all monotonic). These rows
/// are the only copy of their counters: ServerStats' totals are their sums.
struct ServerThreadStats {
  int thread = 0;
  std::uint64_t connections_adopted = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

/// Point-in-time server counters (monotonic unless marked as a gauge).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t connections_active = 0;   ///< gauge
  std::uint64_t sessions_active = 0;      ///< gauge: connections past kHello
  std::uint64_t frames_received = 0;      ///< complete verified frames decoded (sum of per_thread)
  std::uint64_t data_frames = 0;          ///< of which enc/dec/ctr work
  std::uint64_t responses_sent = 0;       ///< kResult/kAdminOk frames queued (sum of per_thread)
  std::uint64_t errors_sent = 0;          ///< kError frames queued for write
  std::uint64_t protocol_errors = 0;      ///< decoder poisonings (framing lost)
  std::uint64_t window_violations = 0;
  std::uint64_t deferred_retries = 0;     ///< try_submit load-sheds absorbed
  std::uint64_t idle_closes = 0;
  std::uint64_t drains = 0;               ///< kDrainOk barriers completed
  std::uint64_t admin_frames = 0;         ///< fleet admin requests handled
  std::uint64_t bytes_in = 0;             ///< sum of per_thread
  std::uint64_t bytes_out = 0;            ///< sum of per_thread
  std::uint64_t in_flight = 0;            ///< gauge: frames submitted, not answered
  std::uint64_t redirects_sent = 0;       ///< frames bounced to their owning node
  std::uint64_t gossip_frames = 0;        ///< kGossip requests served
  std::uint64_t gossip_rounds = 0;        ///< outbound gossip dials attempted
  std::uint64_t cluster_nodes_alive = 0;  ///< gauge; 0 when not clustered
  std::string node_id;                    ///< empty when not clustered
  obs::HistogramSnapshot request_latency_us;  ///< frame decoded -> response queued
  obs::HistogramSnapshot session_in_flight;   ///< window occupancy per data frame
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::vector<ServerThreadStats> per_thread;  ///< one entry per event-loop thread

  /// The one JSON rendering: every field above (plus `threads`, the row
  /// count) as a single object written into `j`, nestable under a key.
  void write_json(report::JsonWriter& j) const;
  /// Human-readable multi-line report, one line per event-loop thread.
  std::string report() const;
};

class Server {
 public:
  /// Binds `address` on `transport` and builds the farm; throws on either
  /// failing. Serving starts with run() or start().
  Server(Transport& transport, const std::string& address, ServerConfig cfg = {});
  ~Server();  ///< request_drain() + join if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Resolved listen address (the real port when "host:0" was asked).
  const std::string& address() const noexcept { return address_; }
  const ServerConfig& config() const noexcept { return cfg_; }

  /// Serve on the calling thread until a drain completes.
  void run();
  /// Serve on a background thread; pair with stop().
  void start();
  /// Graceful shutdown, callable from any thread (including signal-ish
  /// contexts): stop accepting, answer every in-flight frame, flush,
  /// close. run() returns once done.
  void request_drain() { draining_.store(true, std::memory_order_release); }
  /// request_drain() and wait for the loop to finish.
  void stop();

  ServerStats stats() const;
  farm::FarmStats farm_stats() const { return farm_.stats(); }
  /// The membership directory, or nullptr when not clustered.
  const cluster::Director* director() const noexcept { return director_.get(); }

  /// Per-frame server timeline (requires ServerConfig::tracing); false if
  /// tracing is off. Chrome trace_event JSON, like Farm::write_chrome_trace.
  bool write_chrome_trace(std::ostream& os) const;

 private:
  struct Connection;
  struct Loop;

  void serve();
  void event_loop(Loop& lp);
  bool adopt_inbox(Loop& lp);
  bool service_conns(Loop& lp, bool draining);
  bool close_finished(Loop& lp, bool draining);
  void idle_wait(Loop& lp);
  void gossip_loop();

  bool service_reads(Connection& c);
  bool handle_frame(Connection& c, Frame&& f);
  bool admin_allowed(Connection& c, const Frame& f);
  bool handle_admin_frame(Connection& c, Frame&& f);
  void handle_data_frame(Connection& c, Frame&& f);
  bool maybe_redirect(Connection& c, const Frame& f);
  bool retry_deferred(Connection& c);
  bool reap_completions(Connection& c);
  bool flush_writes(Connection& c);
  void send_frame(Connection& c, Op op, std::uint32_t seq, std::uint16_t flags,
                  std::vector<std::uint8_t> payload);
  void send_error(Connection& c, std::uint32_t seq, ErrorCode code, const std::string& msg,
                  bool fatal);
  bool submit_request(Connection& c, Frame& f);

  ServerConfig cfg_;
  Transport* transport_;  ///< for the gossip thread's outbound dials
  farm::Farm farm_;
  std::mutex admin_mu_;  ///< control actions may come from any loop
  std::unique_ptr<Listener> listener_;
  std::string address_;
  std::unique_ptr<cluster::Director> director_;  ///< null when not clustered
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<unsigned> next_chaos_worker_{0};  ///< rotation for kAdminInject 0xFF
  std::atomic<bool> draining_{false};
  std::atomic<bool> accepting_{false};  ///< loop 0 may still deal new connections
  std::atomic<bool> running_{false};
  std::thread thread_;
  std::thread gossip_thread_;
  std::atomic<bool> gossip_stop_{false};

  // Counters are written by the loop threads, read by anyone (relaxed
  // atomics, same pattern as the farm's WorkerCounters). The per-frame and
  // per-byte counts live only in each Loop's per-thread row.
  struct Counters {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_closed{0};
    std::atomic<std::uint64_t> connections_active{0};
    std::atomic<std::uint64_t> sessions_active{0};
    std::atomic<std::uint64_t> data_frames{0};
    std::atomic<std::uint64_t> errors_sent{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> window_violations{0};
    std::atomic<std::uint64_t> deferred_retries{0};
    std::atomic<std::uint64_t> idle_closes{0};
    std::atomic<std::uint64_t> drains{0};
    std::atomic<std::uint64_t> admin_frames{0};
    std::atomic<std::uint64_t> in_flight{0};
    std::atomic<std::uint64_t> redirects_sent{0};
    std::atomic<std::uint64_t> gossip_frames{0};
    std::atomic<std::uint64_t> gossip_rounds{0};
    std::atomic<std::uint64_t> cluster_nodes_alive{0};
  } counters_;
  obs::Histogram request_latency_us_;
  obs::Histogram session_in_flight_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace aesip::net
