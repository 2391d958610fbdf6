#include "workloads.h"

#include <array>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <tuple>

#include "app/session.h"
#include "codec/ec_profile.h"
#include "core/clock.h"
#include "dpss/deployment.h"
#include "netlog/event.h"
#include "obs/critical_path.h"
#include "vol/dataset.h"

namespace perfbench {
namespace {

using namespace visapult;

constexpr std::size_t kKiB = 1024;
constexpr std::size_t kMiB = 1024 * 1024;
// hot_read and bulk_io split a run into this many rounds, each on a fresh
// deployment, and report medians over them; frame runs at least
// kMinSessions whole sessions.
constexpr int kRounds = 10;
constexpr int kMinSessions = 3;

void put(std::vector<Metric>* list, const std::string& name, double v,
         const std::string& unit, std::size_t n) {
  list->push_back({name, v, unit, n});
}

// p50 always; p99 only when at least ten samples lie beyond it.
void put_latency(Results* res, const std::string& stem,
                 const std::vector<double>& us) {
  put(&res->detail, stem + "_p50_us", median(us), "us", us.size());
  if (tail_supported(us.size(), 0.99)) {
    put(&res->detail, stem + "_p99_us", quantile(us, 0.99), "us", us.size());
  }
}

std::vector<std::uint8_t> materialize(const vol::DatasetDesc& d) {
  std::vector<std::uint8_t> out(d.total_bytes());
  for (int t = 0; t < d.timesteps; ++t) {
    const vol::Volume v = d.generate(t);
    std::memcpy(out.data() + static_cast<std::size_t>(t) * d.bytes_per_step(),
                v.data().data(), d.bytes_per_step());
  }
  return out;
}

// ---- the program's own counters ------------------------------------------------

double sample_total(const obs::MetricsRegistry& reg, const std::string& name,
                    bool take_max = false) {
  double v = 0.0;
  for (const auto& s : reg.samples()) {
    if (s.name != name) continue;
    v = take_max ? std::max(v, s.value) : v + s.value;
  }
  return v;
}

struct Counters {
  double cache_hits = 0, cache_misses = 0;
  double loop_busy = 0, loop_idle = 0;
  double chain_forwards = 0, parity_deltas = 0, peer_exchanges = 0;
  double pool_queue_peak = 0, peer_pool_queue_peak = 0;

  static Counters read(dpss::TcpDeployment& dep) {
    Counters c;
    const auto& master = dep.master().metrics_registry();
    c.loop_busy = sample_total(master, "dpss_util_loop_busy_seconds");
    c.loop_idle = sample_total(master, "dpss_util_loop_idle_seconds");
    for (int i = 0; i < dep.server_count(); ++i) {
      dpss::BlockServer& s = dep.server(i);
      const auto cm = s.cache_metrics();
      c.cache_hits += static_cast<double>(cm.hits);
      c.cache_misses += static_cast<double>(cm.misses);
      c.chain_forwards += static_cast<double>(s.chain_forwards());
      c.parity_deltas += static_cast<double>(s.parity_deltas_applied());
      const auto& reg = s.metrics_registry();
      c.peer_exchanges += sample_total(reg, "dpss_util_peer_exchanges_total");
      c.pool_queue_peak = std::max(
          c.pool_queue_peak, sample_total(reg, "dpss_util_pool_queue_peak", true));
      c.peer_pool_queue_peak =
          std::max(c.peer_pool_queue_peak,
                   sample_total(reg, "dpss_util_peer_pool_queue_peak", true));
    }
    return c;
  }

  // Accumulate the change from `before` to `after`; peaks take the max.
  void add_delta(const Counters& after, const Counters& before) {
    cache_hits += after.cache_hits - before.cache_hits;
    cache_misses += after.cache_misses - before.cache_misses;
    loop_busy += after.loop_busy - before.loop_busy;
    loop_idle += after.loop_idle - before.loop_idle;
    chain_forwards += after.chain_forwards - before.chain_forwards;
    parity_deltas += after.parity_deltas - before.parity_deltas;
    peer_exchanges += after.peer_exchanges - before.peer_exchanges;
    pool_queue_peak = std::max(pool_queue_peak, after.pool_queue_peak);
    peer_pool_queue_peak =
        std::max(peer_pool_queue_peak, after.peer_pool_queue_peak);
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Pool-wait histograms of every server, merged (reset after set-up so
// they cover the measured window only).
const char* const kPoolWait = "dpss_util_pool_task_wait_seconds";

void reset_pool_wait(dpss::TcpDeployment& dep) {
  for (int i = 0; i < dep.server_count(); ++i) {
    dep.server(i).metrics_registry().histogram(kPoolWait).reset();
  }
}

void merge_pool_wait(dpss::TcpDeployment& dep, obs::HistogramSnapshot* m) {
  if (m->buckets.empty()) m->buckets.assign(obs::Histogram::kBuckets, 0);
  for (int i = 0; i < dep.server_count(); ++i) {
    const auto s = dep.server(i).metrics_registry().histogram(kPoolWait).snapshot();
    if (s.count == 0) continue;
    m->min = m->count == 0 ? s.min : std::min(m->min, s.min);
    m->max = m->count == 0 ? s.max : std::max(m->max, s.max);
    m->count += s.count;
    m->sum += s.sum;
    for (std::size_t b = 0; b < s.buckets.size() && b < m->buckets.size(); ++b) {
      m->buckets[b] += s.buckets[b];
    }
  }
}

// Critical-path stage attribution over traced requests, read from the
// master's span collector (the program's existing trace report path).
class StageProbe {
 public:
  StageProbe(dpss::TcpDeployment& dep, dpss::TraceExport& client)
      : dep_(dep), client_(client) {}

  // Ship everything logged so far and exclude it from the next account().
  void begin() {
    flush();
    dep_.master().span_collector().finalize_all();
    for (const auto& t : dep_.master().span_collector().trees()) {
      known_.insert(t.trace_id);
    }
  }
  void flush() {
    dep_.export_spans();
    dpss::export_spans_to_master(dep_.master(), client_);
  }
  // Fold traces finished since begin() into `stage_seconds` / `total`.
  int account(std::map<std::string, double>* stage_seconds, double* total) {
    flush();
    dep_.master().span_collector().finalize_all();
    int traces = 0;
    for (const auto& t : dep_.master().span_collector().trees()) {
      if (!known_.insert(t.trace_id).second) continue;
      const obs::StageBreakdown b = obs::critical_path(t);
      if (b.total_seconds <= 0) continue;
      ++traces;
      *total += b.total_seconds;
      for (const auto& [stage, s] : b.stages) (*stage_seconds)[stage] += s;
    }
    return traces;
  }

 private:
  dpss::TcpDeployment& dep_;
  dpss::TraceExport& client_;
  std::set<std::uint64_t> known_;
};

struct ClientTrace {
  std::shared_ptr<netlog::MemorySink> sink =
      std::make_shared<netlog::MemorySink>(1u << 15);
  std::shared_ptr<netlog::NetLogger> logger = std::make_shared<netlog::NetLogger>(
      core::global_real_clock(), "perfbench-client", "perfbench", sink);
  dpss::TraceExport exporter{"perfbench-client", sink, {}};
};

constexpr std::size_t kTraceSinkCapacity = 1u << 15;

// =============================================================================
// hot_read
// =============================================================================

const vol::DatasetDesc kHotDesc{"hot", {128, 128, 64}, 4,
                                vol::Generator::kCombustion, 42};

struct HotWindow {
  std::vector<double> lat4k_us, lat64k_us;
  std::uint64_t ops = 0, bytes = 0, failed = 0;
  double wall_s = 0.0;
  std::vector<std::string> errors;

  void absorb(const HotWindow& o) {
    lat4k_us.insert(lat4k_us.end(), o.lat4k_us.begin(), o.lat4k_us.end());
    lat64k_us.insert(lat64k_us.end(), o.lat64k_us.begin(), o.lat64k_us.end());
    ops += o.ops;
    bytes += o.bytes;
    failed += o.failed;
    wall_s += o.wall_s;
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  }
};

HotWindow hot_window(dpss::TcpDeployment& dep,
                     const std::vector<std::uint8_t>& ref, std::uint64_t seed,
                     double seconds,
                     const std::shared_ptr<netlog::NetLogger>& trace_logger) {
  constexpr int kThreads = 2;
  HotWindow w;
  std::vector<dpss::DpssClient> clients;
  std::vector<std::unique_ptr<dpss::DpssFile>> files;
  for (int i = 0; i < kThreads; ++i) {
    auto c = dep.make_client();
    auto f = c.is_ok() ? c.value().open(kHotDesc.name)
                       : core::Result<std::unique_ptr<dpss::DpssFile>>(c.status());
    if (!f.is_ok()) {
      ++w.failed;
      w.errors.push_back("hot_read client open: " + f.status().to_string());
      return w;
    }
    clients.push_back(std::move(c).take());
    if (trace_logger) f.value()->enable_tracing(trace_logger, 1.0);
    files.push_back(std::move(f).take());
  }

  std::vector<HotWindow> per(kThreads);
  const double t0 = now_s();
  const double deadline = t0 + seconds;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      HotWindow& out = per[static_cast<std::size_t>(i)];
      dpss::DpssFile& file = *files[static_cast<std::size_t>(i)];
      Rng rng(mix(seed, 100 + static_cast<std::uint64_t>(i)));
      std::vector<std::uint8_t> buf(64 * kKiB);
      while (now_s() < deadline) {
        const std::size_t size = rng.below(4) == 0 ? 64 * kKiB : 4 * kKiB;
        const std::uint64_t off =
            rng.below((ref.size() - size) / (4 * kKiB) + 1) * 4 * kKiB;
        const std::uint64_t trace = spans().enabled() ? spans().new_trace() : 0;
        const double s = now_s();
        core::Result<std::size_t> r = [&] {
          ScopedSpan span("dpss_client.pread", trace);
          return file.pread(buf.data(), size, off);
        }();
        const double us = (now_s() - s) * 1e6;
        ++out.ops;
        out.bytes += size;
        (size == 4 * kKiB ? out.lat4k_us : out.lat64k_us).push_back(us);
        if (!r.is_ok() || r.value() != size ||
            std::memcmp(buf.data(), ref.data() + off, size) != 0) {
          ++out.failed;
          if (out.errors.size() < 4) {
            out.errors.push_back(
                "hot_read pread at " + std::to_string(off) + " size " +
                std::to_string(size) + ": " +
                (r.is_ok() ? std::string("wrong bytes") : r.status().to_string()));
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall = now_s() - t0;
  for (const auto& p : per) w.absorb(p);
  w.wall_s = wall;
  return w;
}

}  // namespace

void run_hot_read(const Options& opt, Results* res) {
  const std::vector<std::uint8_t> ref = materialize(kHotDesc);
  ClientTrace ct;

  // Each round deploys, ingests and warms with one full read (timed as
  // set-up), then carries one measurement window; fresh deployments per
  // round average out thread placement.  Traced runs split each window
  // into an untraced and a traced half.
  const double window = opt.seconds / kRounds / (opt.trace ? 2 : 1);
  std::vector<double> setup_s, round_mbps, round_ops_s;
  HotWindow w, tw;
  Counters delta;
  obs::HistogramSnapshot wait;
  std::vector<std::uint8_t> warm(ref.size());
  const std::uint64_t setup_trace = spans().new_trace();
  for (int round = 0; round < kRounds; ++round) {
    spans().set_enabled(opt.trace);
    std::unique_ptr<dpss::TcpDeployment> dep;
    const double t0 = now_s();
    {
      ScopedSpan span("setup.hot_read", setup_trace);
      dep = std::make_unique<dpss::TcpDeployment>(4);
      core::Status st = dep->start();
      if (st.is_ok()) st = dep->ingest(kHotDesc);
      if (!st.is_ok()) {
        res->fail("hot_read set-up: " + st.to_string());
        return;
      }
      auto client = dep->make_client();
      if (!client.is_ok()) {
        res->fail("hot_read set-up client: " + client.status().to_string());
        return;
      }
      auto file = client.value().open(kHotDesc.name);
      if (!file.is_ok()) {
        res->fail("hot_read set-up open: " + file.status().to_string());
        return;
      }
      // One block per request, so the warm pass never queues deep.
      for (std::size_t off = 0; off < warm.size(); off += 64 * kKiB) {
        ++res->attempted;
        auto r = file.value()->pread(warm.data() + off, 64 * kKiB, off);
        if (!r.is_ok() || r.value() != 64 * kKiB) {
          res->fail("hot_read warm read at " + std::to_string(off));
        }
      }
    }
    setup_s.push_back(now_s() - t0);
    if (warm != ref) res->fail("hot_read warm read returned wrong bytes");

    if (opt.trace) dep->enable_trace_collection(kTraceSinkCapacity);
    reset_pool_wait(*dep);
    const Counters before = Counters::read(*dep);
    spans().set_enabled(false);
    const HotWindow rw = hot_window(*dep, ref, mix(opt.seed, round), window,
                                    nullptr);
    if (rw.wall_s > 0) {
      round_mbps.push_back(rw.bytes / rw.wall_s / 1e6);
      round_ops_s.push_back(rw.ops / rw.wall_s);
    }
    w.absorb(rw);
    delta.add_delta(Counters::read(*dep), before);
    merge_pool_wait(*dep, &wait);

    if (!opt.trace) continue;
    // Traced half: client tracing at sample rate 1 plus bench spans.
    spans().set_enabled(true);
    tw.absorb(hot_window(*dep, ref, mix(opt.seed, 100 + round), window,
                         ct.logger));
    if (round + 1 < kRounds) continue;

    // Wire share: traced 4 KiB preads, attributed by the critical-path
    // report the master's collector builds.
    StageProbe probe(*dep, ct.exporter);
    probe.begin();
    auto client = dep->make_client();
    if (!client.is_ok()) {
      res->fail("hot_read trace probe client: " + client.status().to_string());
      return;
    }
    auto file = client.value().open(kHotDesc.name);
    if (!file.is_ok()) {
      res->fail("hot_read trace probe open: " + file.status().to_string());
      return;
    }
    file.value()->enable_tracing(ct.logger, 1.0);
    Rng rng(mix(opt.seed, 2));
    std::vector<std::uint8_t> buf(4 * kKiB);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t off = rng.below(ref.size() / (4 * kKiB)) * 4 * kKiB;
      ++res->attempted;
      auto r = file.value()->pread(buf.data(), buf.size(), off);
      if (!r.is_ok() || std::memcmp(buf.data(), ref.data() + off, buf.size())) {
        res->fail("hot_read traced probe read at " + std::to_string(off));
      }
    }
    std::map<std::string, double> stage_s;
    double total = 0.0;
    const int traces = probe.account(&stage_s, &total);
    put(&res->detail, "obs.wire_share", ratio(stage_s["wire"], total), "ratio",
        static_cast<std::size_t>(traces));
  }
  spans().set_enabled(opt.trace);

  for (const HotWindow* x : {&w, &tw}) {
    res->attempted += x->ops;
    res->failed += x->failed;
    for (const auto& e : x->errors) {
      if (res->errors.size() < 8) res->errors.push_back(e);
    }
  }
  if (w.lat4k_us.empty() || w.lat64k_us.empty()) {
    res->fail("hot_read: no reads completed");
    return;
  }
  const double p50_4k = median(w.lat4k_us);
  put(&res->e2e, "latency_ms", p50_4k / 1e3, "ms", w.lat4k_us.size());
  // Rates are medians over the rounds, so a stall confined to one round
  // does not move them.
  put(&res->e2e, "throughput_mbps", median(round_mbps), "MB/s",
      round_mbps.size());
  put(&res->e2e, "setup_s", median(setup_s), "s", setup_s.size());

  put_latency(res, "read_4k", w.lat4k_us);
  put_latency(res, "read_64k", w.lat64k_us);
  put(&res->detail, "hot_read_ops_s", median(round_ops_s), "1/s",
      round_ops_s.size());

  // Layer context from the program's own counters, over the windows.
  const double lookups = delta.cache_hits + delta.cache_misses;
  put(&res->detail, "cache.hit_ratio", ratio(delta.cache_hits, lookups), "ratio",
      static_cast<std::size_t>(lookups));
  put(&res->detail, "net.loop_busy_fraction",
      ratio(delta.loop_busy, delta.loop_busy + delta.loop_idle), "ratio",
      kRounds);
  put(&res->detail, "core.pool_task_wait_p50_us", wait.p50() * 1e6, "us",
      wait.count);
  put(&res->detail, "core.pool_queue_peak", delta.pool_queue_peak, "count",
      kRounds);

  if (opt.trace && !tw.lat4k_us.empty()) {
    put(&res->layer, "obs.trace_overhead_pct",
        (median(tw.lat4k_us) / p50_4k - 1.0) * 100.0, "%", tw.lat4k_us.size());
  }
}

// =============================================================================
// bulk_io
// =============================================================================

namespace {

// The initial contents are overwritten by the write phases before any read,
// so the datasets use the cheaper of the two generators.
const vol::DatasetDesc kBulkRf3{"bulk-rf3", {128, 128, 128}, 4,
                                vol::Generator::kCosmology, 42};
const vol::DatasetDesc kBulkEc{"bulk-ec", {128, 128, 128}, 4,
                               vol::Generator::kCosmology, 43};
constexpr std::size_t kOpBytes = 4 * kMiB;
constexpr std::uint64_t kChunks = 32 * kMiB / kOpBytes;

struct Phase {
  std::vector<double> op_s;
  std::uint64_t bytes = 0;
  double total_s() const {
    double t = 0;
    for (double s : op_s) t += s;
    return t;
  }
  // Bytes over time spent inside the phase's calls.
  double gbps() const { return total_s() > 0 ? bytes / total_s() / 1e9 : 0.0; }
};

// Expected bytes of (dataset, chunk) after its `version`-th overwrite.
std::uint64_t pattern_key(std::uint64_t seed, int ds, std::uint64_t chunk,
                          std::uint64_t version) {
  return mix(mix(seed, static_cast<std::uint64_t>(ds)), chunk * 1000003 + version);
}

struct BulkState {
  const Options& opt;
  Results* res;
  std::vector<std::uint8_t> buf = std::vector<std::uint8_t>(kOpBytes);
  std::vector<std::uint8_t> expect = std::vector<std::uint8_t>(kOpBytes);
  std::uint64_t version[2][kChunks] = {};
  std::uint64_t start_chunk = 0;

  // One phase: at least one full pass over the dataset, then until the
  // budget is spent.  With a `probe`, the phase's first eight ops are
  // shipped to the collector and attributed by stage.
  void run(dpss::DpssFile& file, int ds, bool write, double budget,
           Phase* ph, const char* span_name, StageProbe* probe,
           std::map<std::string, double>* stage_s, double* stage_total) {
    const double end = now_s() + budget;
    const std::uint64_t trace = spans().enabled() ? spans().new_trace() : 0;
    for (std::uint64_t done = 0; done < kChunks || now_s() < end; ++done) {
      const std::uint64_t chunk = (start_chunk + done) % kChunks;
      const std::uint64_t off = chunk * kOpBytes;
      bool ok = false;
      std::string why;
      if (write) {
        const std::uint64_t v = version[ds][chunk] + 1;
        fill_pattern(buf.data(), buf.size(), pattern_key(opt.seed, ds, chunk, v));
        const double s = now_s();
        core::Status st;
        {
          ScopedSpan span(span_name, trace);
          file.lseek(static_cast<std::int64_t>(off));
          st = file.write(buf.data(), buf.size());
        }
        ph->op_s.push_back(now_s() - s);
        ok = st.is_ok();
        if (ok) version[ds][chunk] = v;
        why = st.to_string();
      } else {
        const double s = now_s();
        core::Result<std::size_t> r = [&] {
          ScopedSpan span(span_name, trace);
          return file.pread(buf.data(), buf.size(), off);
        }();
        ph->op_s.push_back(now_s() - s);
        fill_pattern(expect.data(), expect.size(),
                     pattern_key(opt.seed, ds, chunk, version[ds][chunk]));
        ok = r.is_ok() && r.value() == buf.size() && buf == expect;
        why = r.is_ok() ? "wrong bytes" : r.status().to_string();
      }
      ph->bytes += kOpBytes;
      ++res->attempted;
      if (!ok) {
        res->fail(std::string(span_name) + " chunk " + std::to_string(chunk) +
                  ": " + why);
      }
      // Traced runs attribute the first few ops of each phase by stage.
      if (probe && done < 8) {
        probe->flush();
        if (done == 7) probe->account(stage_s, stage_total);
      }
    }
  }
};

}  // namespace

void run_bulk_io(const Options& opt, Results* res) {
  dpss::ServerCacheConfig cache;
  cache.capacity_bytes = 4 * kMiB;  // 24 MiB over 6 servers < each dataset

  ClientTrace ct;
  BulkState bs{opt, res};
  bs.start_chunk = Rng(opt.seed).below(kChunks);
  // Each round deploys and ingests both datasets (timed as set-up), then
  // runs the four phases; fresh deployments per round average out thread
  // placement and ring placement (which hashes ephemeral ports).
  const double budget = opt.seconds / kRounds / 4;
  std::vector<double> setup_s, round_mbps;
  Phase w_rf3, w_ec, r_rf3, r_deg, r_rf3_traced;
  const Phase* const phases[] = {&w_rf3, &w_ec, &r_rf3, &r_deg};
  // Bytes and seconds spent in the four measured phases so far.
  auto moved = [&phases] {
    std::pair<double, double> t{0.0, 0.0};
    for (const Phase* p : phases) {
      t.first += static_cast<double>(p->bytes);
      t.second += p->total_s();
    }
    return t;
  };
  Counters delta;
  double reconstructed = 0.0;
  std::map<std::string, double> stage_s;
  double stage_total = 0.0;
  const std::uint64_t setup_trace = spans().new_trace();
  for (int round = 0; round < kRounds; ++round) {
    spans().set_enabled(opt.trace);
    std::unique_ptr<dpss::TcpDeployment> dep;
    std::unique_ptr<dpss::DpssClient> client;
    std::unique_ptr<dpss::DpssFile> rf3, ec;
    const double t0 = now_s();
    {
      ScopedSpan span("setup.bulk_io", setup_trace);
      dep = std::make_unique<dpss::TcpDeployment>(6, dpss::DiskModel{}, false,
                                                  cache);
      core::Status st = dep->start();
      if (st.is_ok()) st = dep->ingest(kBulkRf3, dpss::kDefaultBlockBytes, 1, 3);
      if (st.is_ok()) {
        st = dep->ingest(kBulkEc, dpss::kDefaultBlockBytes, 1, 1,
                         codec::EcProfile{4, 2});
      }
      if (!st.is_ok()) {
        res->fail("bulk_io set-up: " + st.to_string());
        return;
      }
      auto c = dep->make_client();
      if (!c.is_ok()) {
        res->fail("bulk_io set-up client: " + c.status().to_string());
        return;
      }
      client = std::make_unique<dpss::DpssClient>(std::move(c).take());
      auto f1 = client->open(kBulkRf3.name);
      auto f2 = client->open(kBulkEc.name);
      if (!f1.is_ok() || !f2.is_ok()) {
        res->fail("bulk_io set-up open failed");
        return;
      }
      rf3 = std::move(f1).take();
      ec = std::move(f2).take();
    }
    setup_s.push_back(now_s() - t0);

    std::unique_ptr<StageProbe> probe;
    if (opt.trace) {
      dep->enable_trace_collection(kTraceSinkCapacity);
      rf3->enable_tracing(ct.logger, 1.0);
      ec->enable_tracing(ct.logger, 1.0);
      probe = std::make_unique<StageProbe>(*dep, ct.exporter);
    }
    const Counters before = Counters::read(*dep);
    const auto moved_before = moved();
    if (probe) probe->begin();
    bs.run(*rf3, 0, true, budget, &w_rf3, "dpss_client.write.rf3", probe.get(),
           &stage_s, &stage_total);
    if (probe) probe->begin();
    bs.run(*ec, 1, true, budget, &w_ec, "dpss_client.write.ec", probe.get(),
           &stage_s, &stage_total);
    if (opt.trace) {
      // Split the read phase: untraced half, then traced half.
      rf3->enable_tracing(nullptr, 0.0);
      spans().set_enabled(false);
      bs.run(*rf3, 0, false, budget / 2, &r_rf3, "dpss_client.pread.rf3",
             nullptr, nullptr, nullptr);
      spans().set_enabled(true);
      rf3->enable_tracing(ct.logger, 1.0);
      probe->begin();
      bs.run(*rf3, 0, false, budget / 2, &r_rf3_traced, "dpss_client.pread.rf3",
             probe.get(), &stage_s, &stage_total);
      probe->begin();
    } else {
      bs.run(*rf3, 0, false, budget, &r_rf3, "dpss_client.pread.rf3", nullptr,
             nullptr, nullptr);
    }
    dep->kill_server(0);
    const std::uint64_t rebuilt_before = ec->reconstructed_reads();
    bs.run(*ec, 1, false, budget, &r_deg, "dpss_client.pread.degraded",
           probe.get(), &stage_s, &stage_total);
    if (ec->reconstructed_reads() == rebuilt_before) {
      res->fail("bulk_io: degraded phase reconstructed no blocks");
    }
    reconstructed += static_cast<double>(ec->reconstructed_reads());
    delta.add_delta(Counters::read(*dep), before);
    const auto moved_after = moved();
    round_mbps.push_back((moved_after.first - moved_before.first) /
                         (moved_after.second - moved_before.second) / 1e6);
  }
  spans().set_enabled(opt.trace);

  std::vector<double> read_ms;
  for (double s : r_rf3.op_s) read_ms.push_back(s * 1e3);
  // The rate is the median over rounds of bytes moved in all four phases
  // over time spent in their calls.
  put(&res->e2e, "latency_ms", median(read_ms), "ms", read_ms.size());
  put(&res->e2e, "throughput_mbps", median(round_mbps), "MB/s",
      round_mbps.size());
  put(&res->e2e, "setup_s", median(setup_s), "s", setup_s.size());

  put(&res->detail, "write_rf3_mbps", w_rf3.gbps() * 1e3, "MB/s",
      w_rf3.op_s.size());
  put(&res->detail, "write_ec_mbps", w_ec.gbps() * 1e3, "MB/s", w_ec.op_s.size());
  put(&res->detail, "read_4m_gbps", r_rf3.gbps(), "GB/s", r_rf3.op_s.size());
  put(&res->detail, "read_degraded_gbps", r_deg.gbps(), "GB/s",
      r_deg.op_s.size());

  const double lookups = delta.cache_hits + delta.cache_misses;
  put(&res->detail, "cache.hit_ratio", ratio(delta.cache_hits, lookups), "ratio",
      static_cast<std::size_t>(lookups));
  put(&res->detail, "dpss_client.reconstructed_reads", reconstructed, "count",
      kRounds);
  put(&res->detail, "dpss_server.chain_forwards", delta.chain_forwards, "count",
      kRounds);
  put(&res->detail, "dpss_server.parity_deltas", delta.parity_deltas, "count",
      kRounds);
  put(&res->detail, "net.peer_exchanges", delta.peer_exchanges, "count",
      kRounds);
  put(&res->detail, "core.peer_pool_queue_peak", delta.peer_pool_queue_peak,
      "count", kRounds);

  if (!opt.trace) return;
  if (!r_rf3_traced.op_s.empty() && !r_rf3.op_s.empty()) {
    put(&res->layer, "obs.trace_overhead_pct",
        (r_rf3.gbps() / r_rf3_traced.gbps() - 1.0) * 100.0, "%",
        r_rf3_traced.op_s.size());
  }
  for (const char* stage : {"chain_forward", "parity_delta", "disk_cache", "wire"}) {
    put(&res->detail, std::string("obs.stage_share.") + stage,
        ratio(stage_s[stage], stage_total), "ratio", 1);
  }
}

// =============================================================================
// frame
// =============================================================================

namespace {

struct SessionFigures {
  double setup_s = 0.0;
  double frame_ms = 0.0;               // period over all timesteps
  std::vector<double> latency_ms;      // per timestep
  std::vector<double> load_ms, render_ms, send_ms, view_ms;  // per (PE, t)
  double heavy_bytes_per_frame = 0.0;
  // Figure 10 profile: per timestep, slowest PE / viewer thread.
  std::vector<std::array<double, 4>> profile;
};

// Pair the session's NetLogger events into the Figure 10 phases.
bool analyse_session(const app::SessionResult& r, int timesteps, int pes,
                     double t_call, SessionFigures* f, Results* res) {
  namespace tags = netlog::tags;
  std::map<std::tuple<std::string, std::int64_t, int>, double> at;
  for (const auto& e : r.events) {
    at.emplace(std::make_tuple(e.tag, e.frame, e.rank), e.timestamp);
  }
  auto get = [&](const char* tag, std::int64_t t, int rank, double* v) {
    auto it = at.find(std::make_tuple(std::string(tag), t, rank));
    if (it == at.end()) return false;
    *v = it->second;
    return true;
  };
  double first_load = 1e300, last_view = -1e300;
  bool ok = true;
  for (int t = 0; t < timesteps; ++t) {
    double t_load = 1e300, t_view = -1e300;
    std::array<double, 4> prof{0, 0, 0, 0};
    for (int pe = 0; pe < pes; ++pe) {
      double ls, le, rs, re, ss, se, fe, vl, vf;
      if (!get(tags::kBeLoadStart, t, pe, &ls) || !get(tags::kBeLoadEnd, t, pe, &le) ||
          !get(tags::kBeRenderStart, t, pe, &rs) ||
          !get(tags::kBeRenderEnd, t, pe, &re) ||
          !get(tags::kBeLightSend, t, pe, &ss) ||
          !get(tags::kBeHeavyEnd, t, pe, &se) ||
          !get(tags::kBeFrameEnd, t, pe, &fe) ||
          !get(tags::kVLightEnd, t, pe, &vl) || !get(tags::kVFrameEnd, t, pe, &vf)) {
        res->fail("frame: PE " + std::to_string(pe) + " did not report frame " +
                  std::to_string(t));
        ok = false;
        continue;
      }
      f->load_ms.push_back((le - ls) * 1e3);
      f->render_ms.push_back((re - rs) * 1e3);
      f->send_ms.push_back((se - ss) * 1e3);
      f->view_ms.push_back((vf - vl) * 1e3);
      prof[0] = std::max(prof[0], (le - ls) * 1e3);
      prof[1] = std::max(prof[1], (re - rs) * 1e3);
      prof[2] = std::max(prof[2], (se - ss) * 1e3);
      prof[3] = std::max(prof[3], (vf - vl) * 1e3);
      t_load = std::min(t_load, ls);
      t_view = std::max(t_view, vf);
      if (spans().enabled()) {
        const std::uint64_t trace = spans().new_trace();
        const std::uint64_t root = spans().add("frame", trace, 0, ls, vf);
        spans().add("backend.load", trace, root, ls, le);
        spans().add("backend.render", trace, root, rs, re);
        spans().add("backend.send", trace, root, ss, se);
        spans().add("viewer.frame", trace, root, vl, vf);
      }
    }
    if (t_load < 1e300) {
      f->latency_ms.push_back((t_view - t_load) * 1e3);
      first_load = std::min(first_load, t_load);
      last_view = std::max(last_view, t_view);
    }
    f->profile.push_back(prof);
  }
  if (!ok || first_load >= 1e300) return false;
  f->setup_s = first_load - t_call;
  f->frame_ms = (last_view - first_load) * 1e3 / timesteps;
  f->heavy_bytes_per_frame =
      r.viewer.frames_completed > 0
          ? r.viewer.heavy_bytes_total / static_cast<double>(r.viewer.frames_completed)
          : 0.0;
  return true;
}

}  // namespace

void run_frame(const Options& opt, Results* res) {
  app::SessionOptions so;
  so.dataset = vol::DatasetDesc{"frame", {128, 128, 128}, 16,
                                vol::Generator::kCombustion,
                                mix(opt.seed, 3) % 1000000};
  const int timesteps = so.dataset.timesteps;

  // Each session is one set-up plus one pass over every timestep; run
  // sessions until the budget is spent (at least kMinSessions).  A traced run
  // records bench spans from its second session on, so the first one is
  // its untraced reference.
  std::vector<SessionFigures> sessions;
  std::vector<double> untraced_frame_ms, traced_frame_ms;
  const double start = now_s();
  while (static_cast<int>(sessions.size()) < kMinSessions ||
         now_s() - start < opt.seconds) {
    const bool traced = opt.trace && !sessions.empty();
    spans().set_enabled(traced);
    const std::uint64_t trace = traced ? spans().new_trace() : 0;
    const double t_call = core::global_real_clock().now();
    core::Result<app::SessionResult> r = [&] {
      ScopedSpan span("app.run_session", trace);
      return app::run_session(so);
    }();
    res->attempted += static_cast<std::uint64_t>(timesteps);
    if (!r.is_ok()) {
      res->failed += static_cast<std::uint64_t>(timesteps);
      res->errors.push_back("run_session: " + r.status().to_string());
      return;
    }
    const app::SessionResult& s = r.value();
    if (s.viewer.frames_completed != timesteps) {
      res->fail("frame: viewer completed " +
                std::to_string(s.viewer.frames_completed) + " of " +
                std::to_string(timesteps) + " frames");
    }
    for (std::size_t pe = 0; pe < s.pes.size(); ++pe) {
      if (s.pes[pe].frames != timesteps) {
        res->fail("frame: PE " + std::to_string(pe) + " rendered " +
                  std::to_string(s.pes[pe].frames) + " frames");
      }
    }
    SessionFigures f;
    if (!analyse_session(s, timesteps, so.backend_pes, t_call, &f, res)) return;
    (traced ? traced_frame_ms : untraced_frame_ms).push_back(f.frame_ms);
    sessions.push_back(std::move(f));
  }
  spans().set_enabled(opt.trace);

  std::vector<double> setup_s, frame_ms, latency, load, render, send, view,
      heavy;
  for (const auto& f : sessions) {
    setup_s.push_back(f.setup_s);
    frame_ms.push_back(f.frame_ms);
    latency.insert(latency.end(), f.latency_ms.begin(), f.latency_ms.end());
    load.insert(load.end(), f.load_ms.begin(), f.load_ms.end());
    render.insert(render.end(), f.render_ms.begin(), f.render_ms.end());
    send.insert(send.end(), f.send_ms.begin(), f.send_ms.end());
    view.insert(view.end(), f.view_ms.begin(), f.view_ms.end());
    heavy.push_back(f.heavy_bytes_per_frame);
  }
  const double bytes = static_cast<double>(so.dataset.total_bytes());
  put(&res->e2e, "latency_ms", median(latency), "ms", latency.size());
  put(&res->e2e, "throughput_mbps",
      bytes / (median(frame_ms) * 1e-3 * timesteps) / 1e6, "MB/s",
      frame_ms.size());
  put(&res->e2e, "setup_s", median(setup_s), "s", setup_s.size());
  put(&res->detail, "frame_ms", median(frame_ms), "ms", frame_ms.size());
  put(&res->detail, "frame_latency_ms", median(latency), "ms", latency.size());
  put(&res->detail, "backend.load_ms", median(load), "ms", load.size());
  put(&res->detail, "backend.render_ms", median(render), "ms", render.size());
  put(&res->detail, "backend.send_ms", median(send), "ms", send.size());
  put(&res->detail, "viewer.frame_ms", median(view), "ms", view.size());
  put(&res->detail, "viewer.heavy_bytes_per_frame", median(heavy), "B",
      heavy.size());

  // The measured Figure 10 profile of the last session.
  std::printf("# frame: Figure 10 profile (last session; slowest PE per phase, ms)\n");
  std::printf("#   %5s %8s %8s %8s %8s\n", "t", "load", "render", "send", "view");
  const auto& prof = sessions.back().profile;
  for (std::size_t t = 0; t < prof.size(); ++t) {
    std::printf("#   %5zu %8.2f %8.2f %8.2f %8.2f\n", t, prof[t][0], prof[t][1],
                prof[t][2], prof[t][3]);
  }

  if (opt.trace && !untraced_frame_ms.empty() && !traced_frame_ms.empty()) {
    put(&res->layer, "obs.trace_overhead_pct",
        (median(traced_frame_ms) / median(untraced_frame_ms) - 1.0) * 100.0, "%",
        traced_frame_ms.size());
  }
}

}  // namespace perfbench
