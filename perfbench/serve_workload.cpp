// serve-rw: the brics_serve daemon driven over its socket by the
// benchmark's own load generator, plus the in-process engine probes.
//
// Load: `kReaders` closed-loop connections each keep `kWindow` farness or
// closeness point queries of 1-16 nodes (drawn from a seeded pool) in
// flight, sending the next only when a reply arrives. One open-loop writer
// sends a single-edge update every `kUpdateInterval`; each update is timed
// from the moment it was due, so a stalled writer counts the wait it
// imposes on later updates.
#include <omp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "extensions/dynamic.hpp"
#include "gen/dataset.hpp"
#include "obs/histogram_snapshot.hpp"
#include "obs/json.hpp"
#include "reference.hpp"
#include "server/engine.hpp"
#include "server/protocol.hpp"
#include "util/parallel.hpp"

extern char** environ;

namespace perfbench {

using namespace brics;

namespace {

constexpr int kReaders = 3;
// Requests each reader keeps in flight. With one, every read waits on
// three thread wake-ups, whose cost on a virtual machine swings with the
// host's load; a small window keeps the daemon's threads busy instead.
// kReaders * kWindow + 1 stays below the daemon's admission queue (16).
constexpr int kWindow = 4;
constexpr double kUpdateInterval = 2.0;  // seconds between due times
constexpr std::size_t kPoolSize = 256;

std::vector<NodeId> read_pool(NodeId n, std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x243f6a8885a308d3ull);
  std::vector<NodeId> pool;
  std::vector<std::uint8_t> taken(n, 0);
  while (pool.size() < std::min<std::size_t>(kPoolSize, n)) {
    const NodeId v = static_cast<NodeId>(rng() % n);
    if (!taken[v]) {
      taken[v] = 1;
      pool.push_back(v);
    }
  }
  return pool;
}

/// Seeded node pairs that are not edges of `g` and not repeated.
std::vector<std::pair<NodeId, NodeId>> new_edges(const CsrGraph& g,
                                                 std::size_t count,
                                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x13198a2e03707344ull);
  std::vector<std::pair<NodeId, NodeId>> out;
  const NodeId n = g.num_nodes();
  while (out.size() < count) {
    NodeId u = static_cast<NodeId>(rng() % n);
    NodeId v = static_cast<NodeId>(rng() % n);
    if (u == v || g.has_edge(u, v)) continue;
    if (u > v) std::swap(u, v);
    bool dup = false;
    for (const auto& e : out) dup = dup || (e.first == u && e.second == v);
    if (!dup) out.emplace_back(u, v);
  }
  return out;
}

/// Connects to the daemon's socket. brics_serve prints "ready" before its
/// accept loop has bound the socket, so a missing or refusing socket is
/// retried for up to 10 s.
int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 2000; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      return fd;
    const int err = errno;
    ::close(fd);
    if (err != ENOENT && err != ECONNREFUSED) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return -1;
}

Reply roundtrip(int fd, const Request& req) {
  write_frame(fd, encode_request(req));
  const std::optional<std::string> frame = read_frame(fd);
  if (!frame) throw InputError("connection closed by server");
  return decode_reply(*frame);
}

/// One brics_serve process, started on construction and stopped (SIGTERM,
/// then SIGKILL after a grace period) on destruction.
class Daemon {
 public:
  Daemon(const std::string& exe, const Workload& w, std::uint64_t seed,
         const std::string& dir)
      : dir_(dir), socket_(dir + "/d.sock") {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ + "/state");
    const std::string rate = std::to_string(w.rate);
    const std::string seed_s = std::to_string(seed);
    std::vector<std::string> args = {exe,          "@" + w.graph,
                                     "--scale",    "1.0",
                                     "--rate",     rate,
                                     "--seed",     seed_s,
                                     "--socket",   socket_,
                                     "--state-dir", dir_ + "/state",
                                     "--flight-out", "none"};
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    const Clock::time_point t0 = Clock::now();
    const int rc =
        posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      stop();
      throw std::runtime_error("cannot start " + exe);
    }
    try {
      wait_ready();
    } catch (...) {
      stop();
      throw;
    }
    ready_s_ = seconds_since(t0);
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  double ready_s() const { return ready_s_; }
  const std::string& socket() const { return socket_; }

  /// Peak resident set of the daemon so far (VmHWM), in MB.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kb = 0.0;
        in >> kb;
        return kb / 1024.0;
      }
      in.ignore(1 << 16, '\n');
    }
    return 0.0;
  }

  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      for (int i = 0; i < 200; ++i) {
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
      }
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

 private:
  // Ready once the daemon prints its "ready" line.
  void wait_ready() {
    std::string buf;
    while (buf.find("ready\n") == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 60000) <= 0)
        throw std::runtime_error("daemon did not become ready");
      char tmp[512];
      const ssize_t got = ::read(out_fd_, tmp, sizeof(tmp));
      if (got <= 0) throw std::runtime_error("daemon exited before ready");
      buf.append(tmp, static_cast<std::size_t>(got));
    }
  }

  std::string dir_;
  std::string socket_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  double ready_s_ = 0.0;
};

/// Key of one served value: (graph version, node, closeness?).
std::uint64_t entry_key(std::uint64_t version, NodeId v, bool closeness) {
  return (version << 33) | (std::uint64_t{v} << 1) | (closeness ? 1u : 0u);
}

struct Served {
  double value;
  bool exact;
};

struct LoadResult {
  std::vector<double> read_ms;
  std::vector<std::pair<double, double>> read_spans;  ///< start, end (s)
  std::vector<std::pair<double, double>> update_spans;
  std::vector<double> update_ms;  ///< from due time to reply
  std::vector<double> late_ms;    ///< send time minus due time
  std::uint64_t reads = 0, read_failures = 0;
  std::uint64_t updates = 0, update_failures = 0;
  double elapsed_s = 0.0;
  std::uint64_t first_version = 0;
  std::unordered_map<std::uint64_t, Served> served;
  std::vector<std::string> problems;
};

/// Drive the daemon for `seconds` with the reader/writer mix above.
LoadResult run_load(const std::string& sock, const std::vector<NodeId>& pool,
                    const std::vector<std::pair<NodeId, NodeId>>& edges,
                    double seconds, std::uint64_t seed) {
  LoadResult res;
  std::mutex mu;  // guards res from the load threads
  auto problem = [&](const std::string& why) {
    std::lock_guard<std::mutex> lk(mu);
    if (res.problems.size() < 20) res.problems.push_back(why);
  };
  {
    const int fd = connect_unix(sock);
    if (fd < 0) throw std::runtime_error("cannot connect to " + sock);
    Request hello;
    hello.type = MsgType::kHello;
    hello.request_id = 1;
    res.first_version = roundtrip(fd, hello).version;
    ::close(fd);
  }

  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::atomic<bool> stop{false};

  auto reader = [&](int id) {
    std::mt19937_64 rng(seed * 31 + static_cast<std::uint64_t>(id));
    std::vector<double> lat;
    std::vector<std::pair<double, double>> spans;
    std::unordered_map<std::uint64_t, Served> seen;
    std::uint64_t ok = 0, failed = 0;
    const int fd = connect_unix(sock);
    if (fd < 0) {
      problem("reader cannot connect");
      std::lock_guard<std::mutex> lk(mu);
      ++res.read_failures;
      return;
    }
    struct Pending {
      Request req;
      double t0;
      std::uint64_t floor;  ///< newest version seen before sending
    };
    std::unordered_map<std::uint32_t, Pending> pending;
    std::uint32_t rid = static_cast<std::uint32_t>(id) << 24;
    std::uint64_t newest = 0;
    auto send_one = [&]() {
      Pending p;
      p.req.type = MsgType::kFarness;
      p.req.request_id = ++rid;
      p.req.closeness = (rng() & 1) != 0;
      const std::size_t k = 1 + rng() % 16;
      for (std::size_t i = 0; i < k; ++i)
        p.req.nodes.push_back(pool[rng() % pool.size()]);
      p.t0 = seconds_since(start);
      p.floor = newest;
      write_frame(fd, encode_request(p.req));
      pending.emplace(p.req.request_id, std::move(p));
    };
    try {
      for (int i = 0; i < kWindow; ++i) send_one();
      while (!pending.empty()) {
        const std::optional<std::string> frame = read_frame(fd);
        if (!frame) throw InputError("connection closed by server");
        const Reply rep = decode_reply(*frame);
        const double t1 = seconds_since(start);
        const auto it = pending.find(rep.request_id);
        if (it == pending.end())
          throw InputError("reply to a request that was not sent");
        const Pending p = std::move(it->second);
        pending.erase(it);
        if (!stop.load(std::memory_order_relaxed) && Clock::now() < end)
          send_one();
        const std::size_t k = p.req.nodes.size();
        if (rep.status != ReplyStatus::kOk || rep.entries.size() != k) {
          problem("read reply with a wrong status or length");
          ++failed;
          continue;
        }
        if (rep.version < p.floor) problem("read version went backwards");
        newest = std::max(newest, rep.version);
        ++ok;
        lat.push_back((t1 - p.t0) * 1e3);
        spans.emplace_back(p.t0, t1);
        for (std::size_t i = 0; i < k; ++i) {
          const FarnessEntry& e = rep.entries[i];
          if (e.node != p.req.nodes[i])
            problem("reply entry for the wrong node");
          const std::uint64_t key =
              entry_key(rep.version, e.node, p.req.closeness);
          const auto [s, fresh] = seen.try_emplace(key, Served{e.value, e.exact});
          if (!fresh && (s->second.value != e.value || s->second.exact != e.exact))
            problem("one version served two different values for a node");
        }
      }
    } catch (const std::exception& e) {
      problem(std::string("read transport failure: ") + e.what());
      failed += pending.size();
    }
    ::close(fd);
    std::lock_guard<std::mutex> lk(mu);
    res.read_ms.insert(res.read_ms.end(), lat.begin(), lat.end());
    res.read_spans.insert(res.read_spans.end(), spans.begin(), spans.end());
    res.reads += ok;
    res.read_failures += failed;
    for (const auto& [key, s] : seen) {
      const auto [it, fresh] = res.served.try_emplace(key, s);
      if (!fresh && (it->second.value != s.value || it->second.exact != s.exact))
        res.problems.push_back("connections saw different values for a node");
    }
  };

  auto writer = [&]() {
    const int fd = connect_unix(sock);
    if (fd < 0) {
      problem("writer cannot connect");
      std::lock_guard<std::mutex> lk(mu);
      ++res.update_failures;
      return;
    }
    std::uint64_t version = res.first_version;
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(kUpdateInterval * (k + 1)));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      Request req;
      req.type = MsgType::kUpdate;
      req.request_id = 0x7f000000u + static_cast<std::uint32_t>(k);
      req.edges.push_back(Edge{edges[k].first, edges[k].second, 1});
      const Clock::time_point sent = Clock::now();
      Reply rep;
      try {
        rep = roundtrip(fd, req);
      } catch (const std::exception& e) {
        problem(std::string("update transport failure: ") + e.what());
        std::lock_guard<std::mutex> lk(mu);
        ++res.update_failures;
        break;
      }
      const Clock::time_point done = Clock::now();
      std::lock_guard<std::mutex> lk(mu);
      if (rep.request_id != req.request_id || rep.status != ReplyStatus::kOk ||
          rep.applied != 1 || rep.version != version + 1) {
        res.problems.push_back("update reply with a wrong id, status, "
                               "applied count or version step");
        ++res.update_failures;
        break;
      }
      version = rep.version;
      ++res.updates;
      res.update_ms.push_back(
          std::chrono::duration<double, std::milli>(done - due).count());
      res.late_ms.push_back(
          std::chrono::duration<double, std::milli>(sent - due).count());
      res.update_spans.emplace_back(
          std::chrono::duration<double>(sent - start).count(),
          std::chrono::duration<double>(done - start).count());
    }
    ::close(fd);
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) threads.emplace_back(reader, i);
  threads.emplace_back(writer);
  for (std::thread& t : threads) t.join();
  res.elapsed_s = seconds_since(start);
  return res;
}

/// Histograms of the daemon's kMetrics JSON snapshot.
MetricsSnapshot fetch_metrics(const std::string& sock) {
  MetricsSnapshot snap;
  const int fd = connect_unix(sock);
  if (fd < 0) throw std::runtime_error("cannot connect for metrics");
  Request req;
  req.type = MsgType::kMetrics;
  req.request_id = 2;
  const Reply rep = roundtrip(fd, req);
  ::close(fd);
  JsonValue doc;
  if (rep.status != ReplyStatus::kOk || !json_parse(rep.metrics_json, doc))
    throw std::runtime_error("metrics request failed");
  const JsonValue* hists = doc.get("metrics");
  hists = hists != nullptr ? hists->get("histograms") : nullptr;
  if (hists == nullptr) return snap;
  for (const auto& [name, h] : hists->obj) {
    MetricsSnapshot::Hist out;
    if (const JsonValue* b = h.get("bounds"))
      for (const JsonValue& x : b->arr)
        out.bounds.push_back(static_cast<std::uint64_t>(x.num_v));
    if (const JsonValue* c = h.get("counts"))
      for (const JsonValue& x : c->arr)
        out.counts.push_back(static_cast<std::uint64_t>(x.num_v));
    if (const JsonValue* t = h.get("total"))
      out.total = static_cast<std::uint64_t>(t->num_v);
    snap.histograms[name] = std::move(out);
  }
  return snap;
}

/// Checks every served value against BFS on the benchmark's own copy of
/// the graph at the reply's version.
void check_served(const LoadResult& r, const CsrGraph& g,
                  const std::vector<std::pair<NodeId, NodeId>>& edges,
                  Outcome& out) {
  const double n1 = static_cast<double>(g.num_nodes() - 1);
  std::map<std::uint64_t, std::vector<NodeId>> by_version;
  for (const auto& [key, s] : r.served) {
    auto& nodes = by_version[key >> 33];
    const NodeId v = static_cast<NodeId>((key >> 1) & 0xffffffffu);
    if (nodes.empty() || nodes.back() != v) nodes.push_back(v);
  }
  const PlainGraph base = copy_graph(g);
  for (auto& [version, nodes] : by_version) {
    if (version < r.first_version ||
        version - r.first_version > r.updates) {
      out.fail_check("a read reported a version no update produced");
      continue;
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    const std::vector<std::pair<NodeId, NodeId>> applied(
        edges.begin(),
        edges.begin() + static_cast<std::ptrdiff_t>(version - r.first_version));
    const std::vector<std::uint64_t> far =
        bfs_farness(with_edges(base, applied), nodes);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const double exact = static_cast<double>(far[i]);
      const auto f = r.served.find(entry_key(version, nodes[i], false));
      const auto c = r.served.find(entry_key(version, nodes[i], true));
      if (f != r.served.end()) {
        if (f->second.exact && f->second.value != exact)
          out.fail_check("exact farness differs from BFS");
      }
      if (c != r.served.end()) {
        if (c->second.exact && c->second.value != n1 / exact)
          out.fail_check("exact closeness differs from (n-1)/BFS farness");
        if (f != r.served.end() && c->second.value != n1 / f->second.value)
          out.fail_check("closeness is not (n-1)/farness");
      }
    }
  }
}

/// One farness query for every node on a fresh daemon: checks exact
/// entries against BFS and returns Σ|served − BFS| / Σ BFS.
double served_error(const std::string& sock,
                    const std::vector<std::uint64_t>& bfs, Outcome& out) {
  const int fd = connect_unix(sock);
  if (fd < 0) throw std::runtime_error("cannot connect to " + sock);
  Request req;
  req.type = MsgType::kFarness;
  req.request_id = 3;  // no nodes: every node
  Reply rep;
  try {
    rep = roundtrip(fd, req);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  ++out.attempted;
  if (rep.status != ReplyStatus::kOk || rep.entries.size() != bfs.size()) {
    ++out.failed;
    return 0.0;
  }
  double err = 0.0, total = 0.0;
  for (std::size_t i = 0; i < bfs.size(); ++i) {
    const double exact = static_cast<double>(bfs[i]);
    if (rep.entries[i].exact && rep.entries[i].value != exact)
      out.fail_check("exact farness differs from BFS");
    err += std::fabs(rep.entries[i].value - exact);
    total += exact;
  }
  return err / total;
}

std::string serve_exe(const Args& a) { return a.build_dir + "/brics_serve"; }

std::string work_dir(const Args& a, const char* tag) {
  return a.build_dir + "/run-" + tag + "-" + std::to_string(::getpid());
}

/// Runs one load session against a fresh daemon; fills the server-side
/// per-layer metrics when `layers` is set.
LoadResult session(const Workload& w, const Args& a, const CsrGraph& g,
                   double seconds, Outcome& out, double* rss_mb,
                   double* ready_s, bool layers) {
  Daemon d(serve_exe(a), w, a.seed, work_dir(a, "load"));
  ++out.attempted;
  if (ready_s != nullptr) *ready_s = d.ready_s();
  const std::vector<NodeId> pool = read_pool(g.num_nodes(), a.seed);
  const std::size_t max_updates =
      static_cast<std::size_t>(seconds / kUpdateInterval) + 1;
  const auto edges = new_edges(g, max_updates, a.seed);
  const MetricsSnapshot before = layers ? fetch_metrics(d.socket())
                                        : MetricsSnapshot{};
  LoadResult r = run_load(d.socket(), pool, edges, seconds, a.seed);
  if (layers) {
    const MetricsSnapshot delta =
        snapshot_delta(before, fetch_metrics(d.socket()));
    auto q50_ms = [&](const char* name) {
      const auto it = delta.histograms.find(name);
      return it == delta.histograms.end()
                 ? 0.0
                 : histogram_quantile(it->second, 0.5) / 1e3;
    };
    out.add("server.queue_wait_ms", q50_ms("server.queue_wait_us"), "ms");
    out.add("server.execute_ms", q50_ms("server.execute_us"), "ms");
    out.add("server.reply_write_ms", q50_ms("server.reply_write_us"), "ms");
    std::vector<double> during;
    for (std::size_t i = 0; i < r.read_spans.size(); ++i)
      for (const auto& [u0, u1] : r.update_spans)
        if (r.read_spans[i].first < u1 && r.read_spans[i].second > u0) {
          during.push_back(r.read_ms[i]);
          break;
        }
    out.add("server.read_p50_during_update_ms", median(during), "ms");
    // The longest read that overlapped an update: how long the engine's
    // write lock held readers back.
    out.add("server.read_max_during_update_ms",
            during.empty() ? 0.0
                           : *std::max_element(during.begin(), during.end()),
            "ms");
    out.add("server.read_p99_ms", quantile(r.read_ms, 0.99), "ms");
    out.add("server.reads_per_s",
            static_cast<double>(r.reads) / r.elapsed_s, "1/s");
    out.add("server.update_p50_ms", median(r.update_ms), "ms");
    out.add("server.update_late_max_ms",
            r.late_ms.empty() ? 0.0
                              : *std::max_element(r.late_ms.begin(),
                                                  r.late_ms.end()),
            "ms");
  }
  if (rss_mb != nullptr) *rss_mb = d.peak_rss_mb();
  d.stop();

  out.attempted += r.reads + r.read_failures + r.updates + r.update_failures;
  out.failed += r.read_failures + r.update_failures;
  for (const std::string& p : r.problems) out.fail_check(p);
  return r;
}

}  // namespace

void add_server_layers(const Workload& w, const CsrGraph& g, const Args& a,
                       double seconds, Outcome& out) {
  const LoadResult r = session(w, a, g, seconds, out, nullptr, nullptr, true);
  const auto edges = new_edges(
      g, static_cast<std::size_t>(seconds / kUpdateInterval) + 1, a.seed);
  check_served(r, g, edges, out);
}

void add_engine_layers(const CsrGraph& g, double rate, const Args& a,
                       Outcome& out) {
  EngineOptions eo;
  eo.estimate.sample_rate = rate;
  eo.estimate.seed = a.seed;
  const std::string dir = work_dir(a, "engine");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  eo.state_dir = dir;
  const auto edges = new_edges(g, 2, a.seed);

  Clock::time_point t0 = Clock::now();
  ServerEngine eng(g, eo);
  out.add("serve.initial_estimate_s", seconds_since(t0), "s");
  ++out.attempted;

  const std::vector<NodeId> pool = read_pool(g.num_nodes(), a.seed);
  std::mt19937_64 rng(a.seed);
  std::vector<double> query_us;
  for (int i = 0; i < 20000; ++i) {
    std::vector<NodeId> nodes(1 + rng() % 16);
    for (NodeId& v : nodes) v = pool[rng() % pool.size()];
    t0 = Clock::now();
    const ServerEngine::QueryResult q = eng.farness(nodes, (rng() & 1) != 0);
    query_us.push_back(seconds_since(t0) * 1e6);
    if (q.entries.size() != nodes.size())
      out.fail_check("engine query returned the wrong number of entries");
  }
  out.add("engine.farness_query_us", median(query_us), "us");

  std::vector<double> apply_ms;
  for (const auto& [u, v] : edges) {
    const Edge e{u, v, 1};
    t0 = Clock::now();
    const ServerEngine::ApplyResult r = eng.apply_batch({&e, 1}, 0);
    apply_ms.push_back(seconds_since(t0) * 1e3);
    ++out.attempted;
    if (r.applied != 1 || !r.persisted) ++out.failed;
  }
  out.add("engine.apply_ms", median(apply_ms), "ms");
  std::uint64_t bytes = 0;
  for (const auto& f : std::filesystem::directory_iterator(dir))
    if (f.is_regular_file()) bytes += f.file_size();
  out.add("checkpoint.commit_bytes", static_cast<double>(bytes), "B");
  std::filesystem::remove_all(dir);

  DynamicFarness dyn(g, eo.estimate);
  std::vector<double> insert_ms;
  for (const auto& [u, v] : edges) {
    const Edge e{u, v, 1};
    t0 = Clock::now();
    dyn.insert_edges({&e, 1});
    insert_ms.push_back(seconds_since(t0) * 1e3);
    ++out.attempted;
  }
  out.add("dynamic.insert_ms", median(insert_ms), "ms");
}

Outcome run_serve_workload(const Workload& w, const Args& a) {
  Outcome out;
  set_threads(omp_get_num_procs());
  const CsrGraph g = build_dataset(w.graph, 1.0);

  if (a.trace) {
    add_pipeline_layers(g, false, w.rate, a, out);
    out.add("gen.build_s", median_build_s(w.graph, 5), "s");
    add_engine_layers(g, w.rate, a, out);
    add_server_layers(w, g, a, a.seconds, out);
    return out;
  }

  // Set-up: daemon start to "ready" (graph build + initial estimate +
  // first state commit), several fresh starts. The set-up daemons sample
  // with the accuracy panel's seeds and are each asked for every node's
  // farness once; rel_err is the mean over them.
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  const std::vector<std::uint64_t> bfs = bfs_farness(copy_graph(g), all);
  std::vector<double> starts;
  double err = 0.0;
  for (int i = 1; i <= kAccuracyPanel; ++i) {
    Daemon d(serve_exe(a), w, static_cast<std::uint64_t>(i),
             work_dir(a, "setup"));
    starts.push_back(d.ready_s());
    ++out.attempted;
    err += served_error(d.socket(), bfs, out) / kAccuracyPanel;
  }
  double rss = 0.0, ready = 0.0;
  const LoadResult r = session(w, a, g, a.seconds, out, &rss, &ready, false);
  starts.push_back(ready);
  const auto edges = new_edges(
      g, static_cast<std::size_t>(a.seconds / kUpdateInterval) + 1, a.seed);
  check_served(r, g, edges, out);
  if (r.reads == 0 || r.updates == 0)
    out.fail_check("the load made no reads or no updates");

  out.add("estimate_s", median(r.update_ms) / 1e3, "s");
  out.add("op_p50_ms", median(r.read_ms), "ms");
  out.add("rel_err", err, "ratio");
  out.add("setup_s", median(starts), "s");
  out.add("peak_rss_mb", rss, "MB");
  return out;
}

}  // namespace perfbench
