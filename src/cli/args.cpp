#include "cli/args.hpp"

#include <charconv>

#include "base/error.hpp"
#include "base/string_util.hpp"
#include "circuits/catalog.hpp"

namespace gdf::cli {

namespace {

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  check(ec == std::errc() && ptr == last && !text.empty(),
        flag + " expects a non-negative integer, got '" + text + "'");
  return value;
}

int parse_int(const std::string& flag, const std::string& text) {
  const std::uint64_t value = parse_u64(flag, text);
  check(value <= 1000000000ULL, flag + " value out of range: " + text);
  return static_cast<int>(value);
}

/// Splits a comma-separated axis value; rejects empty entries.
std::vector<std::string> parse_list(const std::string& flag,
                                    const std::string& text) {
  const std::vector<std::string> parts = split(text, ',');
  check(!parts.empty(), flag + " expects a comma-separated list");
  for (const std::string& part : parts) {
    check(!part.empty(), flag + ": empty entry in '" + text + "'");
  }
  return parts;
}

alg::Mode parse_mode(const std::string& flag, const std::string& text) {
  if (text == "robust") {
    return alg::Mode::Robust;
  }
  if (text == "nonrobust" || text == "non-robust") {
    return alg::Mode::NonRobust;
  }
  throw Error(flag + " expects 'robust' or 'nonrobust', got '" + text + "'");
}

bool parse_on_off(const std::string& flag, const std::string& text) {
  if (text == "on") {
    return true;
  }
  if (text == "off") {
    return false;
  }
  throw Error(flag + " expects 'on' or 'off', got '" + text + "'");
}

bool parse_sites(const std::string& flag, const std::string& text) {
  if (text == "full") {
    return true;
  }
  if (text == "stems") {
    return false;
  }
  throw Error(flag + " expects 'full' or 'stems', got '" + text + "'");
}

}  // namespace

DriverConfig parse_args(int argc, const char* const* argv) {
  DriverConfig config;
  run::SweepSpec& spec = config.spec;
  spec.shard.policy = run::ShardConfig::Policy::Auto;
  std::vector<std::string> names;        // --circuit, in flag order
  std::vector<std::string> bench_files;  // --bench, in flag order
  bool all = false;
  auto value_of = [&](int& i, const std::string& flag) -> std::string {
    check(i + 1 < argc, flag + " requires a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      config.help = true;
    } else if (arg == "--circuit" || arg == "-c") {
      names.push_back(value_of(i, arg));
    } else if (arg == "--bench" || arg == "-b") {
      bench_files.push_back(value_of(i, arg));
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--list") {
      config.list_only = true;
    } else if (arg == "--csv") {
      config.csv = true;
    } else if (arg == "--stages") {
      config.stage_stats = true;
    } else if (arg == "--learn") {
      spec.base.learn = parse_on_off(arg, value_of(i, arg))
                            ? core::LearnMode::On
                            : core::LearnMode::Off;
    } else if (arg == "--fault-budget") {
      const int budget = parse_int(arg, value_of(i, arg));
      check(budget > 0, "--fault-budget expects a positive assignment count");
      spec.base.fault_budget = budget;
    } else if (arg == "--on-error") {
      spec.on_error = run::parse_on_error(value_of(i, arg));
    } else if (arg == "--journal") {
      config.journal = value_of(i, arg);
      check(!config.journal.empty(), "--journal expects a file path");
    } else if (arg == "--resume") {
      config.resume = true;
    } else if (arg == "--jobs" || arg == "-j") {
      const std::string text = value_of(i, arg);
      const std::uint64_t jobs = parse_u64(arg, text);
      check(jobs <= run::ThreadPool::kMaxThreads,
            arg + " value out of range (at most " +
                std::to_string(run::ThreadPool::kMaxThreads) + "): " + text);
      spec.jobs = static_cast<unsigned>(jobs);
    } else if (arg == "--shard-faults") {
      spec.shard = run::parse_shard_faults(value_of(i, arg));
    } else if (arg == "--bench-dir") {
      spec.bench_dir = value_of(i, arg);
    } else if (arg == "--no-seconds") {
      spec.include_seconds = false;
    } else if (arg == "--fault-order") {
      for (const std::string& part : parse_list(arg, value_of(i, arg))) {
        spec.orders.push_back(run::parse_fault_order(part));
      }
    } else if (arg == "--modes") {
      for (const std::string& part : parse_list(arg, value_of(i, arg))) {
        spec.modes.push_back(parse_mode(arg, part));
      }
    } else if (arg == "--seeds") {
      for (const std::string& part : parse_list(arg, value_of(i, arg))) {
        spec.seeds.push_back(parse_u64(arg, part));
      }
    } else if (arg == "--backtracks") {
      for (const std::string& part : parse_list(arg, value_of(i, arg))) {
        spec.backtrack_limits.push_back(parse_int(arg, part));
      }
    } else if (arg == "--dropping") {
      for (const std::string& part : parse_list(arg, value_of(i, arg))) {
        spec.fault_dropping.push_back(parse_on_off(arg, part));
      }
    } else if (arg == "--fault-sites") {
      for (const std::string& part : parse_list(arg, value_of(i, arg))) {
        spec.full_sites.push_back(parse_sites(arg, part));
      }
    } else {
      throw Error("unknown option '" + arg + "' (see gdf_atpg --help)");
    }
  }
  check(!(all && !names.empty()),
        "--all and --circuit are mutually exclusive");
  check(config.help || config.list_only || all || !names.empty() ||
            !bench_files.empty(),
        "nothing to do: pass --circuit NAME, --bench FILE, --all, or "
        "--list (see gdf_atpg --help)");
  for (const std::string& name : all ? circuits::catalog_names() : names) {
    spec.circuits.push_back(run::CircuitSource::catalog(name));
  }
  for (const std::string& path : bench_files) {
    spec.circuits.push_back(run::CircuitSource::file(path));
  }
  check(config.help || config.list_only || spec.cells_per_circuit() == 1 ||
            config.csv,
        "a parameter matrix (multi-valued --modes/--fault-order/--seeds/"
        "--backtracks/--dropping/--fault-sites) produces CSV; pass --csv");
  check(!config.resume || !config.journal.empty(),
        "--resume requires --journal FILE (the journal to replay)");
  check(config.journal.empty() || !config.stage_stats,
        "--journal does not combine with --stages (stage counters are not "
        "journaled, so a resumed run could not replay them)");
  return config;
}

std::string usage() {
  return
      "gdf_atpg — robust gate delay fault test generation for non-scan\n"
      "circuits (van Brakel, Gläser, Kerkhoff, Vierhaus, DATE 1995).\n"
      "\n"
      "usage: gdf_atpg (--circuit NAME | --bench FILE)... | --all | --list"
      " [options]\n"
      "\n"
      "selection:\n"
      "  -c, --circuit NAME      run one catalog circuit (repeatable)\n"
      "  -b, --bench FILE        run an ISCAS'89 .bench netlist from disk\n"
      "                          (repeatable; combines with --circuit)\n"
      "      --all               sweep the full circuit catalog\n"
      "      --list              print catalog circuit names and exit\n"
      "      --bench-dir DIR     file-backed catalog: use DIR/<name>.bench\n"
      "                          when present, generated substitute else\n"
      "                          (default: $GDF_BENCH_DIR)\n"
      "\n"
      "parallelism:\n"
      "  -j, --jobs N            worker threads for the sweep (0 = all\n"
      "                          hardware threads, at most 1024) [0];\n"
      "                          output order and bytes are independent\n"
      "                          of N\n"
      "      --shard-faults P    intra-circuit fault sharding: 'auto'\n"
      "                          (large circuits generate a sliding\n"
      "                          window of faults on idle workers),\n"
      "                          'off', or a forced worker count of at\n"
      "                          most 1024 [auto]; bytes are independent\n"
      "                          of P\n"
      "\n"
      "parameter axes (comma-separated lists; one value sets the knob,\n"
      "several make a matrix whose cross product runs per circuit and\n"
      "adds config columns to the CSV — requires --csv; defaults = paper\n"
      "setup):\n"
      "      --modes LIST        robust,nonrobust                [robust]\n"
      "      --fault-order LIST  targeting order: static,random,adi\n"
      "                          (adi = accidental-detection-index pass)\n"
      "                                                          [static]\n"
      "      --seeds LIST        X-fill seeds                      [1995]\n"
      "      --backtracks LIST   TDgen and SEMILET abort limits     [100]\n"
      "      --dropping LIST     fault dropping via fault simulation:\n"
      "                          on,off                              [on]\n"
      "      --fault-sites LIST  full (gate outputs + fanout branches),\n"
      "                          stems (gate outputs only)         [full]\n"
      "\n"
      "flow configuration:\n"
      "      --fault-budget N    deterministic work cap per fault, counted\n"
      "                          in implication-engine assignments: the\n"
      "                          fault aborts once the search spends N\n"
      "                          [off]; bytes stay identical across --jobs\n"
      "                          and --shard-faults\n"
      "      --learn MODE        conflict-driven two-frame search: 'on'\n"
      "                          (conflict analysis drives backjumps and\n"
      "                          the activity decision order; default) or\n"
      "                          'off' (chronological search, static\n"
      "                          decision order)\n"
      "\n"
      "robust execution:\n"
      "      --on-error POLICY   what a failing cell does: 'abort' (fail\n"
      "                          fast, default), 'skip' (emit a\n"
      "                          deterministic '# error:' row at the\n"
      "                          cell's canonical position and continue),\n"
      "                          or 'retry:N' (skip plus up to N re-runs\n"
      "                          with bounded backoff for transient I/O\n"
      "                          failures)\n"
      "      --journal FILE      append every completed row to FILE\n"
      "                          (fsync'd) so a killed run can resume;\n"
      "                          not combinable with --stages\n"
      "      --resume            replay FILE's completed rows verbatim and\n"
      "                          run only the remaining cells; the\n"
      "                          concatenated output is byte-identical to\n"
      "                          an uninterrupted run (with --no-seconds)\n"
      "\n"
      "SIGINT/SIGTERM stop the run cooperatively: in-flight searches\n"
      "unwind, completed rows flush, and the exit status is 3 (partial).\n"
      "\n"
      "output:\n"
      "      --csv               CSV rows instead of the Table-3 text table\n"
      "      --no-seconds        omit the wall-time column (byte-stable\n"
      "                          output for diffing runs)\n"
      "      --stages            per-circuit Figure-4 stage counters\n"
      "  -h, --help              this message\n";
}

}  // namespace gdf::cli
