// End-to-end benchmark of the update protocol. One invocation runs one
// workload for a fixed time as repeated fresh rounds (see runner.h), checks
// every output, and prints one JSON line of metrics: the end-to-end ones by
// default, the per-layer ones with --trace 1.
//
//   p2pdb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   p2pdb_perfbench --selftest
//
// perfbench/run.py builds this program and forwards its arguments.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "host_gauge.h"
#include "runner.h"
#include "selftest.h"
#include "src/core/global_fixpoint.h"

namespace perfbench {
namespace {

// Set-up is timed from here: static initialization, before main() runs.
const Clock::time_point kProcessStart = Clock::now();

constexpr int kMinRounds = 3;

/// The gauge's lower-decile sample on the measuring host at a calm time
/// (README.md, "Host speed"). Round times are multiplied by this over the
/// run's own lower-decile sample.
constexpr double kReferenceGaugeS = 0.037;

/// Lower decile, interpolated as Python's statistics.quantiles(v, n=10)[0]
/// (the exclusive method): the speed of the run's fast rounds, which the
/// host's slow spells leave alone.
double LowDecile(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double h = 0.1 * static_cast<double>(v.size() + 1);
  if (h <= 1) return v.front();
  if (h >= static_cast<double>(v.size())) return v.back();
  size_t j = static_cast<size_t>(h);
  return v[j - 1] + (h - static_cast<double>(j)) * (v[j] - v[j - 1]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: p2pdb_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "       p2pdb_perfbench --selftest\n"
               "workloads: tree_bulk cyclic_overlap durable_reads tcp_tree\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") return RunSelfTest();
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      traced = value == "1";
    } else {
      return Usage();
    }
  }
  WorkloadSpec spec;
  if (!MakeSpec(workload_name, seed, &spec)) return Usage();

  // Inputs: the scenario and the reads, both generated from the seed.
  auto system = p2pdb::workload::BuildScenario(spec.scenario);
  if (!system.ok()) {
    std::fprintf(stderr, "scenario: %s\n", system.status().ToString().c_str());
    return 1;
  }
  // The read set is the clients' input, not the peers' set-up: its
  // generation is left out of setup_s.
  Clock::time_point reads_start = Clock::now();
  auto ops = p2pdb::workload::BuildQueryWorkload(*system, spec.reads);
  const double reads_gen_s = SecondsSince(reads_start);
  if (!ops.ok()) {
    std::fprintf(stderr, "reads: %s\n", ops.status().ToString().c_str());
    return 1;
  }
  const std::string data_dir = ".bench_data/" + spec.name + "-" +
                               std::to_string(::getpid());
  Runner runner(spec, *system, *ops, data_dir);

  // Rounds until the time is up. A traced run starts with one untraced
  // round whose exact counts the traced rounds must reproduce.
  Issues issues;
  ReadSamples reads;
  std::vector<RoundOut> rounds;
  std::unique_ptr<HostGauge> gauge;
  std::vector<double> gauge_s;
  double setup_s = 0;
  double peak_rss = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Clock::time_point measure_start = Clock::now();
  while (static_cast<int>(rounds.size()) < kMinRounds ||
         SecondsSince(measure_start) < seconds) {
    bool trace_round = traced && !rounds.empty();
    RoundOut r = runner.RunRound(trace_round, &reads, &issues);
    if (rounds.empty()) {
      setup_s =
          std::chrono::duration<double>(r.setup_done - kProcessStart).count() -
          reads_gen_s;
      // Every round does the same work, so the first one reaches the
      // rounds' high-water mark; read it before the gauge adds its table.
      peak_rss = PeakRssMiB();
      gauge = std::make_unique<HostGauge>();
    }
    gauge_s.push_back(gauge->Sample());
    attempted += r.operations;
    failed += r.failed;
    rounds.push_back(std::move(r));
  }
  // Round times are stated at the gauge's reference speed.
  const double gauge_low = LowDecile(gauge_s);
  const double speed = kReferenceGaugeS / gauge_low;

  // --- Checks against the oracle, on the last round's peers. ---
  auto oracle =
      p2pdb::core::ComputeGlobalFixpoint(runner.system(), spec.chase);
  std::vector<p2pdb::rel::Database> finals = runner.FinalDatabases();
  if (!oracle.ok()) {
    issues.push_back("oracle: " + oracle.status().ToString());
  } else {
    CheckCertainTuples(finals, oracle->node_dbs, runner.Participants(),
                       &issues);
    if (spec.homomorphic_check) {
      CheckHomomorphicEquivalence(finals, oracle->node_dbs,
                                  runner.Participants(), &issues);
    }
  }
  // Every round reached the same certain state; on the simulator every
  // round (traced or not) also did exactly the same work.
  const RoundOut& ref = rounds.front();
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundOut& r = rounds[i];
    if (r.digests != rounds.back().digests) {
      issues.push_back("round " + std::to_string(i) +
                       ": certain tuples differ from the last round");
    }
    if (spec.tcp) continue;
    std::string at = "round " + std::to_string(i) + " ";
    CheckSameCount(at + "messages", ref.messages, r.messages, &issues);
    CheckSameCount(at + "wire bytes", ref.wire_bytes, r.wire_bytes, &issues);
    CheckSameCount(at + "tuples inserted", ref.tuples_inserted,
                   r.tuples_inserted, &issues);
    CheckSameCount(at + "token passes", ref.token_passes, r.token_passes,
                   &issues);
    CheckSameCount(at + "joins", ref.joins, r.joins, &issues);
  }
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);

  // --- Metrics: times as the lower decile over the measured rounds times
  // the host speed, counts as their median (the untraced reference round of
  // a traced run is not measured). ---
  std::vector<const RoundOut*> measured;
  for (const RoundOut& r : rounds) {
    if (!traced || &r != &rounds.front()) measured.push_back(&r);
  }
  auto over_rounds = [&](auto field, bool is_time) {
    std::vector<double> v;
    for (const RoundOut* r : measured) v.push_back(field(*r));
    return is_time ? LowDecile(std::move(v)) * speed : Median(std::move(v));
  };
  const double update_s =
      over_rounds([](const RoundOut& r) { return r.update_s; }, true);
  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"setup_s", setup_s * speed, "s"},
        {"update_s", update_s, "s"},
        {"peak_rss_mb", peak_rss, "MB"},
        {"messages",
         over_rounds([](const RoundOut& r) { return double(r.messages); },
                     false),
         "count"},
        {"wire_bytes",
         over_rounds([](const RoundOut& r) { return double(r.wire_bytes); },
                     false),
         "bytes"},
        {"recover_s",
         over_rounds([](const RoundOut& r) { return r.recover_s; }, true),
         "s"},
        {"disk_bytes",
         over_rounds([](const RoundOut& r) { return double(r.disk_bytes); },
                     false),
         "bytes"},
        {"point_read_us", reads.GeoMeanOfBest(true) * speed, "us"},
        {"cq_read_us", reads.GeoMeanOfBest(false) * speed, "us"},
    };
  } else {
    std::map<std::string, std::vector<double>> layers;
    for (const RoundOut* r : measured) {
      for (const auto& [name, value] : r->layers) {
        layers[name].push_back(value);
      }
    }
    for (auto& [name, values] : layers) {
      bool is_time =
          name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0;
      std::string unit = is_time ? "s" : "count";
      if (name.find("ratio") != std::string::npos) {
        unit = "ratio";
      } else if (name.find("bytes") != std::string::npos) {
        unit = "bytes";
      }
      metrics.push_back({name,
                         is_time ? LowDecile(std::move(values)) * speed
                                 : Median(std::move(values)),
                         unit});
    }
    // The gauge itself, unscaled: how fast the host ran.
    metrics.push_back({"host.gauge_s", gauge_low, "s"});
    std::fprintf(stderr, "traced update_s %.6f s\n", update_s);
  }

  std::fprintf(stderr, "%s: %zu rounds, %" PRIu64 " operations, %zu issues\n",
               spec.name.c_str(), rounds.size(), attempted, issues.size());
  std::fprintf(stderr, "host speed %.4f (gauge %.5f s)\n", speed, gauge_low);
  std::fprintf(stderr, "update_s by round:");
  for (const RoundOut& r : rounds) std::fprintf(stderr, " %.4f", r.update_s);
  std::fprintf(stderr, "\n");
  std::fprintf(stderr, "gauge_s by round:");
  for (double g : gauge_s) std::fprintf(stderr, " %.4f", g);
  std::fprintf(stderr, "\nrecover_s by round:");
  for (const RoundOut& r : rounds) std::fprintf(stderr, " %.4f", r.recover_s);
  std::fprintf(stderr, "\n");
  for (size_t i = 0; i < issues.size() && i < 20; ++i) {
    std::fprintf(stderr, "  issue: %s\n", issues[i].c_str());
  }
  std::printf("%s\n", JsonLine(issues.empty(), attempted, failed, metrics)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
