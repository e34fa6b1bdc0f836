// swallow_perfbench: one repetition of one benchmark workload.
//
//   swallow_perfbench --workload NAME --seed N [--scale full|tiny]
//                     [--dir DIR] [--trace-out FILE] [--workers N]
//                     [--uninterrupted] [--plant-mismatch]
//
// Drives the simulator through its public headers only and prints one JSON
// object: host seconds of the set-up region (workload start to the first
// run_until) and of the timed region (first run_until to the final ledger
// read or export), simulated counts read from public accessors, the host's
// peak resident memory, and a digest of every simulated output.  With
// --trace-out it also records a span around each call it makes into a
// layer, prints per-span-name self times, and writes the span tree to FILE
// as Chrome/Perfetto trace JSON.  run.py repeats this process, checks the
// digests and reports medians; README.md explains the workloads.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/netstat.h"
#include "api/patterns.h"
#include "api/taskgen.h"
#include "arch/assembler.h"
#include "bench/bench_util.h"
#include "board/system.h"
#include "common/error.h"
#include "common/strings.h"
#include "load/load.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "snap/machine.h"
#include "snap/snapfile.h"

namespace {

using namespace swallow;
using HostClock = std::chrono::steady_clock;

// ----- Spans -----------------------------------------------------------

// In-memory span recorder.  Disabled, open/close cost one branch, so the
// untraced repetitions measure the end-to-end numbers without it.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  SpanLog(bool on, HostClock::time_point t0) : on_(on), t0_(t0) {}

  int open(const char* name) {
    if (!on_) return -1;
    spans_.push_back(Span{name, since_start(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = since_start();
    current_ = s.parent;
  }

  /// Self time (duration minus the time its child spans cover), summed by
  /// span name.
  std::map<std::string, double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end - spans_[i].start;
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            spans_[i].end - spans_[i].start;
      }
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name] += self[i];
    }
    return by_name;
  }

  /// Chrome trace-event JSON ("X" complete events on one host thread, in
  /// microseconds), with the per-name self times attached.
  std::string chrome_json(const std::string& workload) const {
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += strprintf(
          "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
          "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
          "\"parent\": %d}}%s\n",
          s.name, layer_of(s.name).c_str(), s.start * 1e6,
          (s.end - s.start) * 1e6, i, s.parent,
          i + 1 < spans_.size() ? "," : "");
    }
    out += "], \"otherData\": {\"workload\": \"" + workload +
           "\", \"self_s\": {";
    bool first = true;
    for (const auto& [name, s] : self_times()) {
      out += strprintf("%s\"%s\": %.9f", first ? "" : ", ", name.c_str(), s);
      first = false;
    }
    out += "}}}\n";
    return out;
  }

 private:
  static std::string layer_of(const char* name) {
    const char* dot = std::strchr(name, '.');
    return dot != nullptr ? std::string(name, dot) : std::string(name);
  }
  double since_start() const {
    return std::chrono::duration<double>(HostClock::now() - t0_).count();
  }

  bool on_;
  HostClock::time_point t0_;
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

template <class F>
decltype(auto) spanned(SpanLog& log, const char* name, F&& f) {
  Scope scope(log, name);
  return f();
}

// ----- Digest ----------------------------------------------------------

// FNV-1a over the exact bytes of the simulated outputs.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// ----- Workloads -------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;
  std::string dir = ".";
  std::string trace_out;
  int workers = 1;
  bool uninterrupted = false;
  bool plant_mismatch = false;
};

struct Result {
  double setup_s = 0;  // workload start -> first run_until
  double timed_s = 0;  // first run_until -> end of the timed region
  std::uint64_t instructions = 0;
  std::uint64_t events = 0;
  std::uint64_t attempted = 1;  // operations: the run, or each request
  std::uint64_t failed = 0;
  // Completed simulated requests: the farm's request/response pairs; on
  // the other workloads the run itself is the one request.
  std::uint64_t requests = 1;
  bool trapped = false;
  ParallelEngine::Stats engine{};
  std::uint64_t noc_tokens = 0;
  std::uint64_t noc_packets = 0;
  std::uint64_t ingress_rejects = 0;
  std::uint64_t load_completed = 0;
  std::uint64_t load_mismatches = 0;
  std::uint64_t load_waits = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t obs_dropped = 0;
  std::uint64_t snap_bytes_first = 0;
  std::uint64_t snap_bytes_last = 0;
  std::uint64_t snapshots = 0;
  Digest digest;
};

/// Marks the three instants the end-to-end times are taken between.
class Region {
 public:
  explicit Region(SpanLog& log) : log_(log), start_(HostClock::now()) {
    root_ = log_.open("bench.workload");
  }
  /// Call immediately before the first run_until.
  void timed() { timed_ = HostClock::now(); }
  void end(Result& r) {
    const HostClock::time_point t = HostClock::now();
    log_.close(root_);
    r.setup_s = std::chrono::duration<double>(timed_ - start_).count();
    r.timed_s = std::chrono::duration<double>(t - timed_).count();
  }

 private:
  SpanLog& log_;
  HostClock::time_point start_;
  HostClock::time_point timed_;
  int root_ = -1;
};

std::uint64_t dispatched(SwallowSystem& sys) {
  std::uint64_t n = 0;
  for (int i = 0; i < sys.domain_count(); ++i) {
    n += sys.domain_sim(i).events_dispatched();
  }
  return n;
}

void advance(SwallowSystem& sys, TimePs t, SpanLog& log, Result& r) {
  const std::uint64_t before = dispatched(sys);
  {
    Scope s(log, "board.run_until");
    sys.run_until(t);
  }
  r.events += dispatched(sys) - before;
}

/// Final settle + merged ledger read (inside the timed region).
std::vector<double> settle(SwallowSystem& sys, SpanLog& log) {
  Scope s(log, "energy.settle");
  sys.settle_energy();
  const EnergyLedger& ledger = sys.ledger();
  std::vector<double> totals;
  for (std::size_t a = 0; a < static_cast<std::size_t>(EnergyAccount::kCount);
       ++a) {
    totals.push_back(ledger.total(static_cast<EnergyAccount>(a)));
  }
  return totals;
}

/// Digest the machine-level outputs and read the counters every workload
/// reports.
void finish_machine(SwallowSystem& sys, const std::vector<double>& ledger,
                    Result& r) {
  for (int i = 0; i < sys.core_count(); ++i) {
    const Core& core = sys.core_by_index(i);
    r.instructions += core.instructions_retired();
    r.trapped = r.trapped || core.trapped();
    r.digest.u64(core.instructions_retired());
    r.digest.u64(core.trapped() ? 1 : 0);
  }
  for (double j : ledger) r.digest.f64(j);
  const NetworkStats net = collect_network_stats(sys);
  r.noc_tokens = net.tokens_forwarded;
  r.noc_packets = net.packets_routed;
  r.ingress_rejects = net.bridge.ingress_rejects;
  if (sys.parallel()) r.engine = sys.engine()->stats();
}

Result run_dense(const Options& o, SpanLog& log) {
  Result r;
  Region region(log);
  Simulator sim;
  SystemConfig cfg;
  cfg.slices_x = o.tiny ? 1 : 5;
  cfg.slices_y = o.tiny ? 1 : 6;
  cfg.seed = o.seed;
  auto sys = spanned(log, "board.build",
                     [&] { return std::make_unique<SwallowSystem>(sim, cfg); });
  const Image img = spanned(log, "arch.assemble",
                            [&] { return assemble(bench::spin_program(4)); });
  {
    Scope s(log, "arch.load");
    for (int i = 0; i < sys->core_count(); ++i) {
      sys->core_by_index(i).load(img);
      sys->core_by_index(i).start();
    }
  }
  const TimePs chop = microseconds(o.tiny ? 1.0 : 4.0);
  const int chops = o.tiny ? 4 : 6;
  region.timed();
  for (int c = 1; c <= chops; ++c) advance(*sys, chop * c, log, r);
  const std::vector<double> ledger = settle(*sys, log);
  region.end(r);
  finish_machine(*sys, ledger, r);
  return r;
}

Result run_ring(const Options& o, SpanLog& log) {
  Result r;
  Region region(log);
  Simulator sim;
  SystemConfig cfg;
  cfg.slices_x = o.tiny ? 1 : 5;
  cfg.slices_y = o.tiny ? 1 : 6;
  cfg.seed = o.seed;
  auto sys = spanned(log, "board.build",
                     [&] { return std::make_unique<SwallowSystem>(sim, cfg); });
  const int n = sys->core_count();
  std::vector<Image> images;
  {
    Scope s(log, "arch.assemble");
    for (int i = 0; i < n; ++i) {
      const NodeId next = sys->core_by_index((i + 1) % n).node_id();
      images.push_back(assemble(bench::ring_node_program(next, 2000, i == 0)));
    }
  }
  {
    Scope s(log, "arch.load");
    for (int i = 0; i < n; ++i) {
      sys->core_by_index(i).load(images[static_cast<std::size_t>(i)]);
      sys->core_by_index(i).start();
    }
  }
  const TimePs chop = milliseconds(1.0);
  const int chops = o.tiny ? 4 : 300;
  region.timed();
  for (int c = 1; c <= chops; ++c) advance(*sys, chop * c, log, r);
  const std::vector<double> ledger = settle(*sys, log);
  region.end(r);
  finish_machine(*sys, ledger, r);
  return r;
}

Result run_farm(const Options& o, SpanLog& log) {
  Result r;
  Region region(log);
  Simulator sim;
  SystemConfig cfg;
  cfg.slices_x = o.tiny ? 1 : 2;
  cfg.slices_y = o.tiny ? 1 : 2;
  cfg.ethernet_bridges = 2;
  cfg.seed = o.seed;
  auto sys = spanned(log, "board.build",
                     [&] { return std::make_unique<SwallowSystem>(sim, cfg); });
  LoadConfig lcfg;
  lcfg.workload = LoadWorkload::kFarm;
  lcfg.closed_loop = true;
  lcfg.concurrency = 16;
  lcfg.service_work = 200;
  lcfg.requests = o.tiny ? 200 : 6000;
  lcfg.seed = o.seed;
  LoadGenerator gen(*sys, lcfg);
  spanned(log, "load.deploy", [&] { gen.deploy(); });
  spanned(log, "board.build", [&] { sys->start_sampling(); });
  spanned(log, "load.arm", [&] { gen.arm(); });
  region.timed();
  const std::uint64_t before = dispatched(*sys);
  spanned(log, "board.run_until", [&] {
    gen.run_to_completion(microseconds(50.0), milliseconds(2000.0));
  });
  r.events = dispatched(*sys) - before;
  const std::vector<double> ledger = settle(*sys, log);
  const std::string report =
      spanned(log, "load.report", [&] { return gen.report_json(); });
  region.end(r);
  finish_machine(*sys, ledger, r);
  r.digest.str(report);
  r.load_completed = gen.completed();
  r.load_mismatches = gen.mismatches();
  r.load_waits = gen.backpressure_waits();
  // Every request is an operation.  A mismatched reply completes nothing
  // and leaves its request outstanding, so the larger of the two counts is
  // the number of requests that failed.
  r.requests = gen.completed();
  r.attempted = lcfg.requests;
  const std::uint64_t missing =
      lcfg.requests - std::min(lcfg.requests, gen.completed());
  r.failed = std::min(lcfg.requests, std::max(missing, gen.mismatches()));
  return r;
}

// The pipeline machine with its attached session; rebuilt on resume.
struct ObservedMachine {
  Simulator sim;
  std::unique_ptr<TraceSession> session;
  std::unique_ptr<SwallowSystem> sys;
};

TraceConfig observed_trace_config() {
  TraceConfig t;
  t.tracing = t.metrics = t.profile = t.energy = true;
  return t;
}

SystemConfig pipeline_config(const Options& o) {
  SystemConfig cfg;
  cfg.slices_x = o.tiny ? 1 : 2;
  cfg.slices_y = o.tiny ? 1 : 2;
  cfg.jobs = o.workers;
  cfg.seed = o.seed;
  return cfg;
}

std::unique_ptr<ObservedMachine> build_observed(const SystemConfig& cfg,
                                                SpanLog& log,
                                                const char* build_span) {
  auto m = std::make_unique<ObservedMachine>();
  spanned(log, build_span, [&] {
    m->session = std::make_unique<TraceSession>(observed_trace_config());
    m->sys = std::make_unique<SwallowSystem>(m->sim, cfg);
  });
  spanned(log, "obs.attach",
          [&] { m->sys->attach_observability(*m->session); });
  return m;
}

Result run_pipeline(const Options& o, SpanLog& log) {
  Result r;
  Region region(log);
  const SystemConfig cfg = pipeline_config(o);
  std::unique_ptr<ObservedMachine> m = build_observed(cfg, log, "board.build");
  {
    // Two stages per slice, placed round-robin over the grid, so traffic
    // crosses every domain boundary; enough items that no stage drains in
    // the span.
    AppBuilder app(*m->sys);
    PipelineConfig pcfg;
    pcfg.stages = 2 * cfg.slices_x * cfg.slices_y;
    pcfg.items = 60000;
    pcfg.work_per_item = 2000;
    pcfg.bytes_per_item = 64;
    std::vector<Placement> places;
    const int slices = cfg.slices_x * cfg.slices_y;
    for (int i = 0; i < pcfg.stages; ++i) {
      const int s = i % slices;
      places.push_back(Placement{
          (s % cfg.slices_x) * Slice::kChipCols + (i / slices) % Slice::kChipCols,
          (s / cfg.slices_x) * Slice::kChipRows, Layer::kHorizontal});
    }
    spanned(log, "api.build", [&] { build_pipeline(app, pcfg, places); });
    spanned(log, "api.start", [&] { app.start(); });
  }
  spanned(log, "board.build", [&] { m->sys->start_sampling(); });

  // 20 chops of 50 us; a checkpoint every 5 chops.  The run "crashes"
  // right after the last checkpoint and resumes from it into a freshly
  // built machine, so no simulated work is repeated.
  const TimePs chop = microseconds(o.tiny ? 25.0 : 50.0);
  const int chops = 20;
  const int every = 5;
  const int crash_after = chops - every;
  region.timed();
  for (int c = 1; c <= chops; ++c) {
    advance(*m->sys, chop * c, log, r);
    if (o.uninterrupted || c % every != 0 || c > crash_after) continue;
    const SnapTargets targets{m->sys.get(), m->session.get(), nullptr,
                              nullptr};
    const SnapshotFile snap =
        spanned(log, "snap.save", [&] { return save_machine(targets); });
    const std::string path =
        checkpoint_path(o.dir, static_cast<std::uint64_t>(c));
    spanned(log, "snap.write", [&] {
      snap.write_file(path);
      prune_checkpoints(o.dir, 2);
    });
    const auto bytes =
        static_cast<std::uint64_t>(std::filesystem::file_size(path));
    if (r.snapshots++ == 0) r.snap_bytes_first = bytes;
    r.snap_bytes_last = bytes;
    if (c != crash_after) continue;
    spanned(log, "board.teardown", [&] { m.reset(); });
    m = build_observed(cfg, log, "snap.rebuild");
    const SnapshotFile f = spanned(log, "snap.read", [&] {
      return SnapshotFile::read_file(list_checkpoints(o.dir).front());
    });
    spanned(log, "snap.restore", [&] {
      restore_machine(f, SnapTargets{m->sys.get(), m->session.get(), nullptr,
                                     nullptr});
    });
  }
  spanned(log, "obs.finish", [&] { m->sys->finish_observability(); });
  std::string trace, metrics, fold;
  {
    Scope s(log, "obs.export");
    trace = m->session->chrome_json();
    metrics = m->session->metrics().dump_json();
    fold = m->session->energy_attribution().folded();
  }
  const std::vector<double> ledger = settle(*m->sys, log);
  region.end(r);
  finish_machine(*m->sys, ledger, r);
  r.digest.str(trace);
  r.digest.str(metrics);
  r.digest.str(fold);
  r.trace_events = m->session->events().size();
  r.obs_dropped = m->session->dropped_total();
  prune_checkpoints(o.dir, 0);
  return r;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_result(const Options& o, const Result& r,
                  const std::map<std::string, double>& self) {
  std::string out = strprintf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"host_threads\": %d, "
      "\"hw_threads\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"setup_s\": %.9f, \"timed_s\": %.9f, \"peak_rss_mb\": %.3f, "
      "\"instructions\": %llu, \"events\": %llu, \"requests\": %llu, "
      "\"attempted\": %llu, \"failed\": %llu, \"trapped\": %s, "
      "\"digest\": \"%016llx\", \"engine_quanta\": %llu, "
      "\"engine_messages\": %llu, \"engine_merges\": %llu, "
      "\"noc_tokens\": %llu, \"noc_packets\": %llu, "
      "\"ingress_rejects\": %llu, \"load_completed\": %llu, "
      "\"load_mismatches\": %llu, \"load_waits\": %llu, "
      "\"trace_events\": %llu, \"obs_dropped\": %llu, "
      "\"snapshots\": %llu, \"snap_bytes_first\": %llu, "
      "\"snap_bytes_last\": %llu, \"self_s\": {",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.workers,
      std::thread::hardware_concurrency(), compiler().c_str(),
      PERFBENCH_BUILD_TYPE, r.setup_s, r.timed_s, peak_rss_mb(),
      static_cast<unsigned long long>(r.instructions),
      static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.requests),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), r.trapped ? "true" : "false",
      static_cast<unsigned long long>(r.digest.value() ^
                                      (o.plant_mismatch ? 1u : 0u)),
      static_cast<unsigned long long>(r.engine.quanta),
      static_cast<unsigned long long>(r.engine.messages),
      static_cast<unsigned long long>(r.engine.merges),
      static_cast<unsigned long long>(r.noc_tokens),
      static_cast<unsigned long long>(r.noc_packets),
      static_cast<unsigned long long>(r.ingress_rejects),
      static_cast<unsigned long long>(r.load_completed),
      static_cast<unsigned long long>(r.load_mismatches),
      static_cast<unsigned long long>(r.load_waits),
      static_cast<unsigned long long>(r.trace_events),
      static_cast<unsigned long long>(r.obs_dropped),
      static_cast<unsigned long long>(r.snapshots),
      static_cast<unsigned long long>(r.snap_bytes_first),
      static_cast<unsigned long long>(r.snap_bytes_last));
  bool first = true;
  for (const auto& [name, s] : self) {
    out += strprintf("%s\"%s\": %.9f", first ? "" : ", ", name.c_str(), s);
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw Error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--workload") {
        o.workload = next();
      } else if (arg == "--seed") {
        o.seed = static_cast<std::uint64_t>(parse_int(next()));
      } else if (arg == "--scale") {
        const std::string v = next();
        require(v == "full" || v == "tiny", "--scale expects full or tiny");
        o.tiny = v == "tiny";
      } else if (arg == "--dir") {
        o.dir = next();
      } else if (arg == "--trace-out") {
        o.trace_out = next();
      } else if (arg == "--workers") {
        o.workers = static_cast<int>(parse_int(next()));
        require(o.workers >= 1, "--workers must be at least 1");
      } else if (arg == "--uninterrupted") {
        o.uninterrupted = true;
      } else if (arg == "--plant-mismatch") {
        o.plant_mismatch = true;
      } else {
        throw Error("unknown option " + arg);
      }
    }
    using Runner = Result (*)(const Options&, SpanLog&);
    const std::map<std::string, Runner> runners = {
        {"dense_480", run_dense},
        {"ring_480", run_ring},
        {"farm_64", run_farm},
        {"pipeline_64_observed", run_pipeline},
    };
    const auto it = runners.find(o.workload);
    require(it != runners.end(), "unknown workload '" + o.workload + "'");
    // Only the pipeline runs the parallel engine; --workers sizes it.
    require(o.workers == 1 || o.workload == "pipeline_64_observed",
            "--workers applies to pipeline_64_observed only");
    const unsigned hw = std::thread::hardware_concurrency();
    require(hw == 0 || static_cast<unsigned>(o.workers) <= hw,
            strprintf("refusing to run %d host threads on a host with %u",
                      o.workers, hw));

    SpanLog log(!o.trace_out.empty(), HostClock::now());
    const Result r = it->second(o, log);
    const std::map<std::string, double> self =
        o.trace_out.empty() ? std::map<std::string, double>{}
                            : log.self_times();
    if (!o.trace_out.empty()) {
      std::ofstream f(o.trace_out);
      f << log.chrome_json(o.workload);
      require(static_cast<bool>(f), "cannot write " + o.trace_out);
    }
    print_result(o, r, self);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swallow_perfbench: %s\n", e.what());
    return 1;
  }
}
