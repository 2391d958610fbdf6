// The three workloads.  Each drives the system only through its public
// entry points (TcpDeployment, DpssClient/DpssFile, app::run_session),
// verifies every output, and fills `Results`.
#pragma once

#include <cstdint>

#include "bench_util.h"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Random 4 KiB / 64 KiB preads against a warm 4-server TCP deployment.
void run_hot_read(const Options& opt, Results* res);
// 4 MiB chain and parity-delta overwrites, 4 MiB reads, degraded EC reads.
void run_bulk_io(const Options& opt, Results* res);
// Whole Visapult sessions: DPSS load -> render -> send -> view.
void run_frame(const Options& opt, Results* res);

}  // namespace perfbench
