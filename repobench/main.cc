// The repository benchmark binary; run.py builds and calls it.
//
//   repobench gen --workload W --seed N --dir D
//       writes the workload's inputs (world CSV files, job queue) into D.
//   repobench run --workload W --seed N --trace 0|1
//                 --input D --scratch D2 --state D3
//       runs one pass of the workload over the inputs in D, prints a
//       report, then one JSON line with what the pass measured.

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "util/logging.h"
#include "workloads.h"

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ToJson(const repobench::RunResult& r) {
  std::string jobs;
  for (const double latency : r.job_s) {
    jobs += (jobs.empty() ? "" : ", ") + JsonNumber(latency);
  }
  std::string failures;
  for (const std::string& failure : r.failures) {
    failures += (failures.empty() ? "" : ", ") + JsonString(failure);
  }
  std::string metrics;
  for (const repobench::Metric& m : r.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + JsonString(m.name) +
               ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return "{\"wall_s\": " + JsonNumber(r.wall_s) +
         ", \"setup_s\": " + JsonNumber(r.setup_s) +
         ", \"campaign_s\": " + JsonNumber(r.campaign_s) +
         ", \"targets\": " + std::to_string(r.targets) +
         ", \"job_s\": [" + jobs + "]" +
         ", \"target_hr10\": " + JsonNumber(r.target_hr10) +
         ", \"hr20\": " + JsonNumber(r.hr20) +
         ", \"digest\": " + JsonString(r.digest) +
         ", \"counts_digest\": " + JsonString(r.counts_digest) +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"failures\": [" + failures + "]" +
         ", \"metrics\": {" + metrics + "}}";
}

int Usage() {
  std::cerr << "usage: repobench gen --workload W --seed N --dir D\n"
               "       repobench run --workload W --seed N --trace 0|1 "
               "--input D --scratch D --state D\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc % 2 != 0) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return Usage();
    args[flag.substr(2)] = argv[i + 1];
  }
  const auto need = [&args](const std::string& name) -> const std::string& {
    const auto found = args.find(name);
    if (found == args.end()) throw std::invalid_argument("missing --" + name);
    return found->second;
  };
  copyattack::util::SetLogLevel(copyattack::util::LogLevel::kWarning);
  try {
    if (command == "gen") {
      std::string error;
      if (!repobench::Generate(need("workload"), std::stoull(need("seed")),
                               need("dir"), &error)) {
        std::cerr << "error: " << error << '\n';
        return 1;
      }
      return 0;
    }
    if (command != "run") return Usage();
    repobench::RunOptions options;
    options.workload = need("workload");
    options.seed = std::stoull(need("seed"));
    options.trace = need("trace") == "1";
    options.input_dir = need("input");
    options.scratch_dir = need("scratch");
    options.state_dir = need("state");
    const repobench::RunResult result = repobench::Run(options);
    for (const std::string& note : result.notes) {
      std::cout << "  " << note << '\n';
    }
    std::cout << ToJson(result) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
