// perfbench: one command that runs a named workload, prints every metric
// by name with its unit, runs the workload's correctness checks, and ends
// its standard output with one JSON result line (README.md).
//
//   perfbench --workload sim_infocom --seed 3 --seconds 10 --trace 0
//       --out-dir .bench_build/out --reference-dir perfbench/reference
//       --replicationd .bench_build/perfbench/impatience/apps/replicationd
//
// (perfbench/run.py builds the tree and passes these flags.)
// Exit status: 0 when every check passed, 1 when a check failed (the
// JSON line then reads "correct": false), 2 on a usage or set-up error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

bool check_reference(const RunOptions& options, const std::string& params,
                     std::uint64_t digest, Outcome& outcome) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  if (options.record) {
    std::cout << "reference-params " << params << "\nreference "
              << options.seed << ' ' << hex << '\n';
    return true;
  }
  const std::string path =
      options.reference_dir + "/" + options.workload + ".txt";
  const auto digests = load_reference(path, params);
  const auto it = digests.find(options.seed);
  if (it == digests.end()) return false;
  outcome.check(it->second == digest,
                "loss table digest " + std::string(hex) +
                    " does not match the reference recorded in " + path);
  return true;
}

namespace {

void usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR --reference-dir DIR "
               "--replicationd BIN [--commit SHA] [--record 1]\n"
               "workloads: sim_infocom mf_million ingest_stream "
               "ingest_snapshot\n";
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to measure a '" << PERFBENCH_BUILD_TYPE
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  RunOptions options;
  std::string commit = "unknown";
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") options.workload = value;
      else if (key == "--seed") options.seed = std::stoull(value);
      else if (key == "--seconds") options.seconds = std::stod(value);
      else if (key == "--trace") options.trace = value == "1";
      else if (key == "--out-dir") options.out_dir = value;
      else if (key == "--reference-dir") options.reference_dir = value;
      else if (key == "--replicationd") options.replicationd = value;
      else if (key == "--commit") commit = value;
      else if (key == "--record") options.record = value == "1";
      else throw std::invalid_argument("unknown flag " + key);
    }
    if (argc % 2 != 1 || options.out_dir.empty() ||
        options.reference_dir.empty() || !(options.seconds > 0)) {
      throw std::invalid_argument("missing or malformed flags");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    usage();
    return 2;
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  std::cout << "context: workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << options.trace << " nproc=" << nproc
            << " compiler=\"" << PERFBENCH_COMPILER << "\""
            << " build_type=" << PERFBENCH_BUILD_TYPE << " commit=" << commit
            << '\n';

  Outcome outcome;
  Tracer tracer(options.trace);
  try {
    std::filesystem::create_directories(options.out_dir);
    if (options.workload == "sim_infocom") {
      outcome = run_sim_infocom(options, tracer);
    } else if (options.workload == "mf_million") {
      outcome = run_mf_million(options, tracer);
    } else if (options.workload == "ingest_stream") {
      outcome = run_ingest(options, false, tracer);
    } else if (options.workload == "ingest_snapshot") {
      outcome = run_ingest(options, true, tracer);
    } else {
      std::cerr << "perfbench: unknown workload '" << options.workload
                << "'\n";
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << '\n';
    return 2;
  }
  if (options.record) return outcome.check_failures.empty() ? 0 : 1;

  for (const auto& note : outcome.notes) std::cout << note << '\n';
  if (options.trace) {
    fill_idle_layers(outcome);
    const std::string spans =
        options.out_dir + "/spans-" + options.workload + ".tsv";
    tracer.write(spans);
    std::cout << "spans: " << spans << "\nself time by span:\n";
    for (const auto& [name, self] : tracer.self_times()) {
      std::cout << "  " << name << " " << self << " s\n";
    }
  }
  for (const auto& [name, m] : outcome.metrics) {
    outcome.check(std::isfinite(m.value), name + " is not finite");
    std::cout << name << " " << json_number(m.value) << " " << m.unit << '\n';
  }
  std::cout << "attempted " << outcome.attempted << " failed "
            << outcome.failed << '\n';
  for (const auto& failure : outcome.check_failures) {
    std::cout << "CHECK FAILED: " << failure << '\n';
  }
  const bool correct = outcome.check_failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : outcome.metrics) {
    std::cout << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
              << (std::isfinite(m.value) ? json_number(m.value) : "0")
              << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
