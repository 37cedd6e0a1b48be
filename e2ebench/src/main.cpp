// e2ebench: the measuring half of the benchmark. run.py builds it, runs it
// once per benchmark run, and turns the raw JSON it prints into metrics.
//
//   e2ebench train --model=lenet|cifar10_quick --seed=N --seconds=S
//                  --threads=T [--trace=1] [--setups=3]
//   e2ebench serve --seed=N --seconds=S --rate=RPS --limit-ms=L
//                  --burst-period=S --burst-spike=N
//                  --workers=W --max-batch=B [--trace=1] [--setups=3]
//   e2ebench selftest
#include <iostream>
#include <map>
#include <string>

#include "cgdnn/core/buildinfo.hpp"
#include "workloads.hpp"

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got " + arg);
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return flags;
}

std::string Get(const std::map<std::string, std::string>& flags,
                const std::string& key, const std::string& fallback = "") {
  const auto it = flags.find(key);
  if (it != flags.end()) return it->second;
  if (!fallback.empty()) return fallback;
  throw std::invalid_argument("missing --" + key);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: e2ebench train|serve|selftest [--key=value ...]\n";
    return 2;
  }
  const std::string mode = argv[1];
  try {
    if (mode == "selftest") return e2e::RunSelfTest() == 0 ? 0 : 1;
    const auto flags = ParseFlags(argc, argv);
    e2e::RunOptions opts;
    opts.seed = std::stoull(Get(flags, "seed"));
    opts.seconds = std::stod(Get(flags, "seconds"));
    opts.threads = std::stoi(Get(flags, "threads", "1"));
    opts.trace = Get(flags, "trace", "0") == "1";
    opts.setups = std::stoi(Get(flags, "setups", "3"));

    e2e::JsonOut out(std::cout);
    out.BeginObject();
    out.Raw("meta", cgdnn::buildinfo::MetaJson());
    out.Str("mode", mode);
    out.Num("threads", opts.threads);
    if (mode == "train") {
      opts.model = Get(flags, "model");
      out.Str("model", opts.model);
      e2e::RunTrain(opts, out);
    } else if (mode == "serve") {
      opts.model = "cifar10_quick";
      opts.rate_rps = std::stod(Get(flags, "rate"));
      opts.limit_ms = std::stod(Get(flags, "limit-ms"));
      opts.burst.period_s = std::stod(Get(flags, "burst-period"));
      opts.burst.spike = std::stoi(Get(flags, "burst-spike"));
      opts.workers = std::stoi(Get(flags, "workers"));
      opts.max_batch = std::stoi(Get(flags, "max-batch"));
      out.Str("model", opts.model);
      e2e::RunServe(opts, out);
    } else {
      throw std::invalid_argument("unknown mode " + mode);
    }
    out.Num("peak_rss_mb", e2e::PeakRssMb());
    out.EndObject();
    std::cout << "\n";
    std::cout.flush();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench " << mode << ": " << e.what() << "\n";
    return 1;
  }
}
