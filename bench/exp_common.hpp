// exp_common.hpp — shared scaffolding for the per-figure bench binaries.
//
// Every bench accepts:
//   --csv           emit CSV instead of an aligned table
//   --seed=N        reseed the deterministic RNGs
//   --scale=F       scale measurement windows (0.5 = faster, 2 = longer);
//                   anything but a positive number exits with status 2
// and prints which thesis figure it regenerates plus the expected shape, so
// the output is self-describing when dumped to bench_output.txt.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace lvrm::bench {

struct BenchArgs {
  bool csv = false;
  std::uint64_t seed = 1;
  double scale = 1.0;

  static BenchArgs parse(int argc, char** argv) {
    const Cli cli(argc, argv);
    BenchArgs args;
    args.csv = cli.get_bool("csv", false);
    args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    if (const auto v = cli.get("scale")) {
      char* end = nullptr;
      args.scale = std::strtod(v->c_str(), &end);
      if (v->empty() || *end != '\0' || !std::isfinite(args.scale) ||
          args.scale <= 0.0) {
        std::cerr << cli.program() << ": --scale must be a positive number, "
                  << "got '" << *v << "'\n";
        std::exit(2);
      }
    }
    return args;
  }

  Nanos scaled(Nanos t) const {
    return static_cast<Nanos>(static_cast<double>(t) * scale);
  }
};

inline void print_header(const std::string& experiment,
                         const std::string& figure,
                         const std::string& expectation) {
  std::cout << "=== " << experiment << " (" << figure << ") ===\n"
            << "paper shape: " << expectation << "\n\n";
}

}  // namespace lvrm::bench
