// perfbench driver: runs one workload once and prints its metrics.
//
//   perfbench_driver --workload <hot_read|bulk_io|frame> --seed <n>
//                    --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// The last line of stdout is one JSON object with `correct`, `attempted`,
// `failed` and `metrics`: the end-to-end metrics with --trace 0, the
// per-layer rungs with --trace 1.  Lines before it are the human report
// (prefixed '#') and one `RESULT` line carrying every figure with its unit,
// sample count, host fingerprint and kind.  Exit status is non-zero when
// any output failed verification or a metric could not be measured.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "ladder.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

SpanLog& spans() {
  static SpanLog log;
  return log;
}

namespace {

// The metric sets BENCHMARK.json declares; every run prints all of one.
const char* const kEndToEnd[] = {"latency_ms", "throughput_mbps", "setup_s",
                                 "rss_peak_mib"};
const char* const kPerLayer[] = {
    "net.tcp_rtt_us.4k",
    "net.tcp_rtt_us.64k",
    "net.reactor_rtt_us.4k",
    "net.reactor_rtt_us.64k",
    "dpss_protocol.reply_codec_us.4k",
    "dpss_protocol.reply_codec_us.64k",
    "dpss_protocol.reply_decode_us.64k",
    "dpss_server.handle_us.4k",
    "dpss_server.handle_us.64k",
    "dpss_client.fanout_spawn_us",
    "dpss_client.pipe_pread_us.4k",
    "dpss_client.pread_1srv_gbps",
    "ceiling.memcpy_gbps",
    "ceiling.tcp_stream_gbps",
    "codec.encode_gbps",
    "codec.reconstruct_gbps",
    "codec.delta_apply_gbps",
    "render.brick_ms",
    "vol.generate_mbps",
    "obs.trace_overhead_pct",
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_metric(const Metric& m) {
  std::printf("#   %-36s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.samples);
}

double value_of(const Results& r, const char* name) {
  const Metric* m = r.find(name);
  return m ? m->value : 0.0;
}

// hot_read: the rungs a warm 4 KiB pread crosses, their sum, and what is
// left unexplained.  A 4 KiB pread fetches its whole 64 KiB block, so the
// 64 KiB rungs are the ones on its path.
void print_hot_ladder(Results* r) {
  const char* const summed[] = {
      "net.reactor_rtt_us.64k",             // transport + dispatch + pool hop
      "dpss_server.handle_us.64k",          // request decode, cache hit, reply encode
      "dpss_protocol.reply_decode_us.64k",  // client-side reply decode
      "dpss_client.fanout_spawn_us",        // one worker thread per fetch round
  };
  const Metric* p50 = r->find("read_4k_p50_us");
  if (!p50) return;
  std::printf("# hot_read ladder: rungs on a warm 4 KiB pread (us)\n");
  double sum = 0.0;
  for (const char* name : summed) {
    const double v = value_of(*r, name);
    sum += v;
    std::printf("#   %-36s %10.2f\n", name, v);
  }
  std::printf("#   %-36s %10.2f  (inside net.reactor_rtt_us.64k, not summed)\n",
              "net.tcp_rtt_us.64k", value_of(*r, "net.tcp_rtt_us.64k"));
  const double unexplained = p50->value - sum;
  std::printf("#   %-36s %10.2f\n", "sum of rungs", sum);
  std::printf("#   %-36s %10.2f\n", "read_4k_p50_us", p50->value);
  std::printf("#   %-36s %10.2f\n", "hot_read.unexplained_us", unexplained);
  r->detail.push_back({"hot_read.rung_sum_us", sum, "us", 1});
  r->detail.push_back({"hot_read.unexplained_us", unexplained, "us", 1});
}

// bulk_io: each throughput beside the two hardware ceilings.
void print_bulk_ceilings(const Results& r) {
  const double mem = value_of(r, "ceiling.memcpy_gbps");
  const double tcp = value_of(r, "ceiling.tcp_stream_gbps");
  std::printf("# bulk_io beside the ceilings (memcpy %.2f GB/s, one loopback "
              "TCP stream %.2f GB/s)\n", mem, tcp);
  const std::pair<const char*, double> rows[] = {
      {"write_rf3_mbps", value_of(r, "write_rf3_mbps") / 1e3},
      {"write_ec_mbps", value_of(r, "write_ec_mbps") / 1e3},
      {"read_4m_gbps", value_of(r, "read_4m_gbps")},
      {"read_degraded_gbps", value_of(r, "read_degraded_gbps")},
      {"dpss_client.pread_1srv_gbps", value_of(r, "dpss_client.pread_1srv_gbps")},
  };
  for (const auto& [name, gbps] : rows) {
    std::printf("#   %-30s %8.3f GB/s  %5.1f%% of tcp  %5.1f%% of memcpy\n", name,
                gbps, tcp > 0 ? 100 * gbps / tcp : 0.0,
                mem > 0 ? 100 * gbps / mem : 0.0);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <hot_read|bulk_io|frame> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (!args.count("--workload") || !args.count("--seed") ||
      !args.count("--seconds") || !args.count("--trace")) {
    return usage();
  }
  const std::string workload = args["--workload"];
  Options opt;
  opt.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  opt.seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  opt.trace = args["--trace"] == "1";
  const std::string out_dir = args.count("--out-dir") ? args["--out-dir"] : "";
  if (opt.seconds <= 0) return usage();

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("# host: nproc=%u compiler=\"%s\" build=%s kind=measured\n", nproc,
              __VERSION__, PERFBENCH_BUILD_TYPE);

  Results res;
  if (workload == "hot_read") {
    run_hot_read(opt, &res);
  } else if (workload == "bulk_io") {
    run_bulk_io(opt, &res);
  } else if (workload == "frame") {
    run_frame(opt, &res);
  } else {
    return usage();
  }
  res.e2e.push_back({"rss_peak_mib", rss_peak_mib(), "MiB", 1});
  res.detail.push_back({"op_error_ratio",
                        res.attempted ? static_cast<double>(res.failed) /
                                            static_cast<double>(res.attempted)
                                      : 1.0,
                        "ratio", res.attempted});

  if (opt.trace) {
    std::vector<std::string> ladder_errors;
    for (auto& m : measure_ladder(&ladder_errors)) res.layer.push_back(m);
    for (const auto& e : ladder_errors) res.fail("ladder: " + e);
  }

  std::printf("# end-to-end\n");
  for (const auto& m : res.e2e) print_metric(m);
  std::printf("# workload figures\n");
  for (const auto& m : res.detail) print_metric(m);
  if (opt.trace) {
    std::printf("# per-layer rungs\n");
    for (const auto& m : res.layer) print_metric(m);
    if (workload == "hot_read") print_hot_ladder(&res);
    if (workload == "bulk_io") print_bulk_ceilings(res);
  }
  for (const auto& e : res.errors) std::printf("# ERROR %s\n", e.c_str());

  // Every declared metric must be present and finite.
  bool complete = true;
  std::string metrics_json;
  auto emit = [&](const char* name) {
    const Metric* m = nullptr;
    for (const auto* list : {&res.e2e, &res.layer}) {
      for (const auto& x : *list) {
        if (x.name == name) m = &x;
      }
    }
    if (!m || !std::isfinite(m->value)) {
      std::printf("# ERROR metric %s was not measured\n", name);
      complete = false;
      return;
    }
    if (!metrics_json.empty()) metrics_json += ",";
    metrics_json += "\"" + m->name + "\":{\"value\":" + num(m->value) +
                    ",\"unit\":\"" + m->unit + "\"}";
  };
  if (opt.trace) {
    for (const char* n : kPerLayer) emit(n);
  } else {
    for (const char* n : kEndToEnd) emit(n);
  }
  const bool correct = complete && res.failed == 0 && res.attempted > 0;

  // Self-describing record of every figure, also archived in --out-dir.
  std::string record = "{\"workload\":\"" + workload + "\",\"seed\":" +
                       std::to_string(opt.seed) + ",\"seconds\":" +
                       num(opt.seconds) + ",\"trace\":" + (opt.trace ? "1" : "0") +
                       ",\"kind\":\"measured\",\"host\":{\"nproc\":" +
                       std::to_string(nproc) + ",\"compiler\":\"" +
                       json_escape(__VERSION__) + "\",\"build_type\":\"" +
                       PERFBENCH_BUILD_TYPE + "\"},\"correct\":" +
                       (correct ? "true" : "false") + ",\"figures\":[";
  bool first = true;
  for (const auto& [group, list] :
       {std::pair{"end_to_end", &res.e2e}, std::pair{"workload", &res.detail},
        std::pair{"per_layer", &res.layer}}) {
    for (const auto& m : *list) {
      record += std::string(first ? "" : ",") + "{\"name\":\"" + m.name +
                "\",\"group\":\"" + group + "\",\"value\":" + num(m.value) +
                ",\"unit\":\"" + m.unit + "\",\"samples\":" +
                std::to_string(m.samples) + ",\"kind\":\"measured\"}";
      first = false;
    }
  }
  record += "],\"errors\":[";
  for (std::size_t i = 0; i < res.errors.size(); ++i) {
    record += std::string(i ? "," : "") + "\"" + json_escape(res.errors[i]) + "\"";
  }
  record += "]}";
  std::printf("RESULT %s\n", record.c_str());

  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string stem = out_dir + "/" + workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0");
    if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
      std::fprintf(f, "%s\n", record.c_str());
      std::fclose(f);
    }
    if (opt.trace) {
      spans().write(stem + ".spans.jsonl");
      std::printf("# spans: %zu recorded (%zu dropped) -> %s.spans.jsonl\n",
                  spans().size(), spans().dropped(), stem.c_str());
    }
  }

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(res.attempted, 1)),
              static_cast<unsigned long long>(res.failed), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
