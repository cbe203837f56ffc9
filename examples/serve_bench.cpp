// Deploy-once / serve-many, end to end:
//
//   1. compile an NB201 genotype to a CompiledModel (once),
//   2. save it as a versioned .mnpkg binary package,
//   3. load it back — no re-lowering, no re-quantization, no
//      re-calibration — and verify the reloaded logits hash (against
//      the checked-in compile-report golden with --golden),
//   4. serve it: a batching ModelServer coalesces requests from N
//      synthetic clients over the int8 runtime and reports
//      throughput + latency percentiles,
//   5. print the load-vs-recompile speedup the package exists for.
//
//   ./serve_bench                                  # compile+save+load+serve
//   ./serve_bench --mode save --out model.mnpkg --hash-out model.hash
//   ./serve_bench --mode load --package model.mnpkg
//       --golden tests/golden/compile_report.golden  (consumer half, CI job)
//   ./serve_bench --clients 8 --requests 64 --max-batch 8 --threads 4
//   ./serve_bench --mode overload --max-queue 16 --deadline-us 500
//       (admission control under a burst: accepted/rejected/dropped ledger)
//   ./serve_bench --mode multi
//       (two distinct packages -> ONE registry process: mmap-backed
//        zero-copy loads, dedup on re-load, per-model lanes, per-model
//        bit-identity vs a serial Executor; --package/--package2 +
//        --golden/--golden2 pin both logits hashes in CI)
//   ./serve_bench --trace-out trace.json --metrics-out metrics.json
//
// Defaults reproduce the fixed scenario of tests/golden/
// compile_report.golden (genotype, seed 7, reduced skeleton), so the
// reloaded hash is directly comparable against that fixture.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

#include "examples/cli.hpp"
#include "src/compile/compiler.hpp"
#include "src/core/report.hpp"
#include "src/data/synthetic.hpp"
#include "src/rt/runtime.hpp"
#include "src/serialize/serialize.hpp"
#include "src/serve/multi_model_server.hpp"

using namespace micronas;

namespace {

constexpr const char* kGoldenArch =
    "|nor_conv_3x3~0|+|none~0|skip_connect~1|+|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|";
/// A second, structurally different genotype for --mode multi: the two
/// packages must have distinct arches (and content hashes) so the
/// registry provably keys and routes per model.
constexpr const char* kSecondArch =
    "|avg_pool_3x3~0|+|nor_conv_1x1~0|skip_connect~1|+|nor_conv_3x3~0|skip_connect~1|"
    "nor_conv_1x1~2|";

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The fixed input of the golden scenario: a pure function of (input
/// size, seed), matching tests/test_compile_e2e.cpp.
Tensor scenario_input(int input_size, std::uint64_t seed) {
  DatasetSpec spec;
  spec.height = spec.width = input_size;
  Rng rng(seed);
  SyntheticDataset data(spec, rng);
  return data.sample_batch(1, rng).images;
}

compile::CompiledModel compile_arch(const std::string& arch, int cells, int input_size,
                                    std::uint64_t seed) {
  const nb201::Genotype genotype = arch.find('|') != std::string::npos
                                       ? nb201::Genotype::from_string(arch)
                                       : nb201::Genotype::from_index(std::stoi(arch));
  compile::CompilerOptions options;
  options.macro.cells_per_stage = cells;
  options.macro.input_size = input_size;
  options.seed = seed;
  return compile::compile_genotype(genotype, options);
}

/// Serial-reference logits hash of a model on its golden-scenario
/// input — what --hash-out records and --golden/--golden2 check.
std::string model_scenario_hash(const compile::CompiledModel& model, std::uint64_t seed) {
  const int input_size = model.graph.node(model.graph.input()).type.shape[2];
  rt::Executor exec(model.graph, model.plan, rt::ExecOptions{1, &model.packed});
  return serialize::logits_hash_hex(exec.run(scenario_input(input_size, seed)));
}

/// `logits_hash <hex>` fixture, same line format the compile-report
/// golden uses, so read_golden_logits_hash() reads both.
void write_hash_file(const std::string& path, const std::string& hash) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) throw std::runtime_error("cannot open " + path + " for writing");
  out << "logits_hash " << hash << "\n";
}

/// --mode multi: two distinct packages served out of ONE registry
/// process. Exercises the whole tentpole: mmap-backed zero-copy loads,
/// dedup on a second load of the same file, per-model lanes behind one
/// routed submit(Request) API, per-model golden hashes, and bit
/// identity of every served logit against a serial Executor.
int run_multi(const CliArgs& args, serve::ServerOptions sopts, std::uint64_t seed,
              std::uint64_t seed2) {
  struct Spec {
    std::string package;  // .mnpkg path (saved here unless provided)
    std::string golden;   // optional logits-hash fixture to enforce
    std::uint64_t seed;
  };
  Spec specs[2];
  specs[0].package = args.get_string("package", args.get_string("out", "model.mnpkg"));
  specs[0].golden = args.get_string("golden", "");
  specs[0].seed = seed;
  specs[1].package = args.get_string("package2", args.get_string("out2", "model2.mnpkg"));
  specs[1].golden = args.get_string("golden2", "");
  specs[1].seed = seed2;

  // Self-contained by default: compile + save both packages unless the
  // caller handed us pre-built ones (the CI job does, in a separate
  // step, to catch format drift).
  if (!args.has("package")) {
    const int cells = args.get_int("cells", 1);
    const int input_size = args.get_int("input", 16);
    serialize::save_model(compile_arch(args.get_string("arch", kGoldenArch), cells, input_size,
                                       seed),
                          specs[0].package);
    serialize::save_model(compile_arch(args.get_string("arch2", kSecondArch), cells, input_size,
                                       seed2),
                          specs[1].package);
  }

  serve::MultiModelServer server(sopts);
  bool ok = true;
  std::string keys[2];
  serve::ModelRegistry::Entry entries[2];
  for (int m = 0; m < 2; ++m) {
    const auto t0 = std::chrono::steady_clock::now();
    keys[m] = server.load(specs[m].package);
    const double load_ms = ms_since(t0);
    entries[m] = server.registry().get(keys[m]);
    std::printf("loaded %s as '%s' in %.2f ms (%s, %llu B zero-copy weights)\n",
                specs[m].package.c_str(), keys[m].c_str(), load_ms,
                entries[m].package->is_mmap() ? "mmap" : "buffered",
                static_cast<unsigned long long>(entries[m].package->zero_copy_bytes()));
  }
  if (keys[0] == keys[1]) {
    std::fprintf(stderr, "FAIL: the two packages resolved to one key (%s) — not distinct\n",
                 keys[0].c_str());
    return 1;
  }

  // Dedup: re-loading package 0 must share the FIRST mapping — same
  // package object, same model object, a registry hit on the metrics.
  const serve::ModelRegistry::Entry again = server.registry().load(specs[0].package);
  const bool deduped =
      again.model.get() == entries[0].model.get() && again.package.get() == entries[0].package.get();
  ok = ok && deduped;

  // Per-model golden gate + serial reference for bit-identity.
  Tensor expected[2];
  for (int m = 0; m < 2; ++m) {
    const compile::CompiledModel& model = *entries[m].model;
    const int input_size = model.graph.node(model.graph.input()).type.shape[2];
    rt::Executor exec(model.graph, model.plan, rt::ExecOptions{1, &model.packed});
    expected[m] = exec.run(scenario_input(input_size, specs[m].seed));
    const std::string hash = serialize::logits_hash_hex(expected[m]);
    std::printf("model '%s' logits hash %s\n", keys[m].c_str(), hash.c_str());
    if (!specs[m].golden.empty()) {
      const std::string want = serialize::read_golden_logits_hash(specs[m].golden);
      if (hash != want) {
        std::fprintf(stderr, "FAIL: model '%s' hash %s != golden %s (%s)\n", keys[m].c_str(),
                     hash.c_str(), want.c_str(), specs[m].golden.c_str());
        ok = false;
      }
    }
  }

  // Interleaved clients against both lanes through the one routed
  // submit(Request); every response must be bit-identical to the
  // serial reference of ITS model.
  const int clients = args.get_int("clients", 4);
  const int requests = args.get_int("requests", 32);
  std::atomic<long long> mismatches{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      std::vector<std::pair<int, std::future<serve::Response>>> mine;
      for (int r = 0; r < requests; ++r) {
        const int m = (c + r) % 2;
        const compile::CompiledModel& model = *entries[m].model;
        const int input_size = model.graph.node(model.graph.input()).type.shape[2];
        serve::Request req;
        req.input = scenario_input(input_size, specs[m].seed);
        req.model_key = keys[m];
        mine.emplace_back(m, server.submit(std::move(req)));
      }
      for (auto& [m, future] : mine) {
        const serve::Response resp = future.get();
        const Tensor& want = expected[m];
        bool same = resp.logits.numel() == want.numel() && resp.model_key == keys[m];
        for (std::size_t i = 0; same && i < want.numel(); ++i) {
          same = resp.logits[i] == want[i];
        }
        if (!same) ++mismatches;
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Routing failures are synchronous and typed.
  bool unknown_rejected = false;
  try {
    serve::Request req;
    req.input = expected[0];
    req.model_key = "no-such-model";
    server.submit(std::move(req));
  } catch (const serve::UnknownModelError&) {
    unknown_rejected = true;
  }

  server.stop();
  ok = ok && mismatches == 0 && unknown_rejected;

  TablePrinter table({"Metric", "Value"});
  table.add_row({"models resident", std::to_string(server.registry().size())});
  table.add_row({"dedup on re-load", deduped ? "shared mapping" : "NOT SHARED"});
  table.add_row({"unknown key rejected", unknown_rejected ? "yes (UnknownModelError)" : "NO"});
  for (int m = 0; m < 2; ++m) {
    const serve::ServerStats stats = server.stats(keys[m]);
    table.add_row({"lane '" + keys[m].substr(0, 24) + "...' requests",
                   std::to_string(stats.requests) + " in " + std::to_string(stats.batches) +
                       " batches (p50 " + TablePrinter::fmt(stats.p50_ms, 2) + " ms)"});
  }
  table.add_row({"served == serial (both models)", mismatches == 0 ? "yes" : "NO"});
  std::cout << table.render();
  examples::print_metrics_section("Registry metrics:", "serve.");
  examples::write_observability_outputs(args);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    examples::ExampleCli cli(
        "Compile -> save -> load -> serve an NB201 model package; modes cover the\n"
        "single-model pipeline, admission control under overload, and multi-model\n"
        "serving through the mmap-backed package registry.");
    cli.flag("mode", "all|save|load|serve|overload|multi", "all", "which pipeline slice to run")
        .flag("arch", "genotype|index", "(golden arch)", "NB201 genotype to compile")
        .flag("arch2", "genotype|index", "(second arch)", "second genotype (--mode multi)")
        .flag("cells", "N", "1", "cells per stage of the deployment skeleton")
        .flag("input", "N", "16", "input image size")
        .flag("seed", "N", "7", "weights + data seed")
        .flag("seed2", "N", "11", "second model's seed (--mode multi)")
        .flag("out", "file", "model.mnpkg", "package path written by save")
        .flag("out2", "file", "model2.mnpkg", "second package path (--mode multi)")
        .flag("package", "file", "(--out)", "package path to load/serve")
        .flag("package2", "file", "(--out2)", "second package to serve (--mode multi)")
        .flag("golden", "file", "", "logits-hash fixture to enforce after load")
        .flag("golden2", "file", "", "second model's fixture (--mode multi)")
        .flag("hash-out", "file", "", "write `logits_hash <hex>` after save (CI fixture)")
        .flag("clients", "N", "4", "concurrent synthetic clients")
        .flag("requests", "N", "32", "requests per client")
        .flag("max-batch", "N", "8", "batch capacity per coalesced invocation")
        .flag("max-wait-us", "us", "2000", "batch hold-open window")
        .flag("threads", "N", "0", "executor threads (0 = one per core)")
        .flag("max-queue", "N", "16", "admission queue bound (--mode overload)")
        .flag("deadline-us", "us", "0", "per-request deadline (<= 0 = none)");
    const CliArgs args = cli.parse(argc, argv);
    examples::maybe_enable_tracing(args);
    const std::string mode = args.get_string("mode", "all");
    if (mode != "all" && mode != "save" && mode != "load" && mode != "serve" &&
        mode != "overload" && mode != "multi") {
      throw std::runtime_error("--mode must be all|save|load|serve|overload|multi");
    }
    const int input_size = args.get_int("input", 16);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
    const auto seed2 = static_cast<std::uint64_t>(args.get_int("seed2", 11));
    const std::string out_path = args.get_string("out", "model.mnpkg");
    const std::string package = args.get_string("package", out_path);
    const std::string golden = args.get_string("golden", "");
    const bool do_save = mode == "all" || mode == "save";
    const bool do_load = mode != "save" && mode != "multi";
    const bool do_serve = mode == "all" || mode == "serve";
    const bool do_overload = mode == "overload";

    if (mode == "multi") {
      serve::ServerOptions sopts;
      sopts.max_batch = args.get_int("max-batch", 8);
      sopts.max_wait_us = args.get_int("max-wait-us", 2000);
      sopts.threads = args.get_int("threads", 0);
      return run_multi(args, sopts, seed, seed2);
    }

    double compile_ms = 0.0;
    if (do_save) {
      auto t0 = std::chrono::steady_clock::now();
      const compile::CompiledModel model = compile_arch(
          args.get_string("arch", kGoldenArch), args.get_int("cells", 1), input_size, seed);
      compile_ms = ms_since(t0);

      t0 = std::chrono::steady_clock::now();
      const std::uint64_t bytes = serialize::save_model(model, out_path);
      const double save_ms = ms_since(t0);
      std::printf("compiled %s in %.1f ms; saved %llu B to %s in %.2f ms\n",
                  model.report.arch.c_str(), compile_ms, static_cast<unsigned long long>(bytes),
                  out_path.c_str(), save_ms);
      std::cout << serialize::read_package_info_file(out_path).to_string();
      const std::string hash_out = args.get_string("hash-out", "");
      if (!hash_out.empty()) {
        const std::string hash = model_scenario_hash(model, seed);
        write_hash_file(hash_out, hash);
        std::printf("logits hash %s written to %s\n", hash.c_str(), hash_out.c_str());
      }
    }
    if (!do_load) {
      examples::write_observability_outputs(args);
      return 0;
    }

    auto t0 = std::chrono::steady_clock::now();
    compile::CompiledModel loaded = serialize::load_model(package);
    const double load_ms = ms_since(t0);
    std::printf("loaded %s in %.2f ms (graph %d nodes, arena %lld B)\n", package.c_str(),
                load_ms, loaded.graph.size(), loaded.plan.arena_bytes);
    if (compile_ms > 0.0) {
      std::printf("load vs recompile: %.1fx faster\n", compile_ms / load_ms);
    }

    // One deterministic inference on the golden-scenario input; with
    // --golden this is the format-drift gate the CI model-package job
    // runs in a separate step from the save.
    const int loaded_input = loaded.graph.node(loaded.graph.input()).type.shape[2];
    rt::Executor exec(loaded.graph, loaded.plan, rt::ExecOptions{1});
    const Tensor logits = exec.run(scenario_input(loaded_input, seed));
    const std::string hash = serialize::logits_hash_hex(logits);
    std::printf("reloaded logits hash %s\n", hash.c_str());
    if (!golden.empty()) {
      const std::string want = serialize::read_golden_logits_hash(golden);
      if (hash != want) {
        std::fprintf(stderr,
                     "FAIL: reloaded logits hash %s != golden %s (%s)\n"
                     "      the package format or the runtime drifted\n",
                     hash.c_str(), want.c_str(), golden.c_str());
        return 1;
      }
      std::printf("golden hash check OK (%s)\n", golden.c_str());
    }
    // --mode overload: hammer a deliberately small admission window
    // (bounded queue + per-request deadlines) with burst clients and
    // print where the offered load went. Every submit must end in
    // exactly one of completed / rejected / dropped, and the server's
    // ledger must agree with the clients' own counts — the same
    // invariant tests/test_serve_overload.cpp asserts, observable here
    // on real overload traffic.
    if (do_overload) {
      const int clients = args.get_int("clients", 4);
      const int requests = args.get_int("requests", 64);
      serve::ServerOptions sopts;
      sopts.max_batch = args.get_int("max-batch", 8);
      sopts.max_wait_us = args.get_int("max-wait-us", 200);
      sopts.threads = args.get_int("threads", 0);
      sopts.max_queue = static_cast<std::size_t>(args.get_int("max-queue", 16));
      sopts.deadline_us = args.get_int("deadline-us", 0);
      serve::ModelServer server(std::move(loaded), sopts);

      std::atomic<long long> accepted{0}, rejected{0}, completed{0}, dropped{0};
      std::vector<std::thread> workers;
      const auto burst0 = std::chrono::steady_clock::now();
      for (int c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          Rng rng(hash_combine(seed, static_cast<std::uint64_t>(c) + 101));
          DatasetSpec spec;
          spec.height = spec.width = loaded_input;
          SyntheticDataset data(spec, rng);
          std::vector<std::future<serve::Response>> mine;
          for (int r = 0; r < requests; ++r) {
            try {
              mine.push_back(server.submit({data.sample_batch(1, rng).images}));
              ++accepted;
            } catch (const serve::QueueFullError&) {
              ++rejected;
            }
          }
          for (std::future<serve::Response>& f : mine) {
            try {
              if (f.get().logits.numel() > 0) ++completed;
            } catch (const serve::DeadlineExpiredError&) {
              ++dropped;
            }
          }
        });
      }
      for (std::thread& w : workers) w.join();
      const double burst_s = ms_since(burst0) / 1000.0;
      server.stop();

      const serve::ServerStats stats = server.stats();
      const long long offered = static_cast<long long>(clients) * requests;
      const bool balanced = accepted + rejected == offered &&
                            accepted == completed + dropped &&
                            stats.accepted == accepted && stats.rejected == rejected &&
                            stats.requests == completed && stats.dropped == dropped;
      TablePrinter table({"Metric", "Value"});
      table.add_row({"offered (clients x requests)",
                     std::to_string(clients) + " x " + std::to_string(requests)});
      table.add_row({"queue bound / deadline",
                     std::to_string(sopts.max_queue) + " / " +
                         (sopts.deadline_us > 0 ? std::to_string(sopts.deadline_us) + " us"
                                                : std::string("none"))});
      table.add_row({"accepted", std::to_string(accepted.load())});
      table.add_row({"rejected (queue full)", std::to_string(rejected.load())});
      table.add_row({"dropped (deadline)", std::to_string(dropped.load())});
      table.add_row({"completed", std::to_string(completed.load())});
      table.add_row({"rejected fraction",
                     TablePrinter::fmt(static_cast<double>(rejected.load()) /
                                           static_cast<double>(offered), 3)});
      table.add_row({"served throughput",
                     TablePrinter::fmt(static_cast<double>(completed.load()) / burst_s, 1) +
                         " req/s"});
      table.add_row({"latency p50 / p90 / p99",
                     TablePrinter::fmt(stats.p50_ms, 2) + " / " +
                         TablePrinter::fmt(stats.p90_ms, 2) + " / " +
                         TablePrinter::fmt(stats.p99_ms, 2) + " ms"});
      table.add_row({"ledger balanced", balanced ? "yes" : "NO"});
      std::cout << table.render();
      // Same registry code path pareto_sweep prints from: the server
      // mirrored its admission ledger + latency histogram live.
      examples::print_metrics_section("Registry metrics:", "serve.");
      examples::write_observability_outputs(args);
      return balanced ? 0 : 1;
    }
    if (!do_serve) {
      examples::write_observability_outputs(args);
      return 0;
    }

    const int clients = args.get_int("clients", 4);
    const int requests = args.get_int("requests", 32);
    serve::ServerOptions sopts;
    sopts.max_batch = args.get_int("max-batch", 8);
    sopts.max_wait_us = args.get_int("max-wait-us", 2000);
    sopts.threads = args.get_int("threads", 0);

    // Serial reference pass (and baseline wall time): every request's
    // batched logits must equal this executor's, bit for bit.
    std::vector<std::vector<Tensor>> inputs(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      Rng rng(hash_combine(seed, static_cast<std::uint64_t>(c) + 1));
      DatasetSpec spec;
      spec.height = spec.width = loaded_input;
      SyntheticDataset data(spec, rng);
      for (int r = 0; r < requests; ++r) {
        inputs[static_cast<std::size_t>(c)].push_back(data.sample_batch(1, rng).images);
      }
    }
    t0 = std::chrono::steady_clock::now();
    std::vector<std::vector<Tensor>> expected(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      for (const Tensor& in : inputs[static_cast<std::size_t>(c)]) {
        expected[static_cast<std::size_t>(c)].push_back(exec.run(in));
      }
    }
    const double serial_s = ms_since(t0) / 1000.0;

    serve::ModelServer server(std::move(loaded), sopts);
    std::vector<std::thread> workers;
    std::vector<std::vector<std::future<serve::Response>>> futures(
        static_cast<std::size_t>(clients));
    t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([c, &server, &inputs, &futures] {
        auto& mine = futures[static_cast<std::size_t>(c)];
        for (const Tensor& in : inputs[static_cast<std::size_t>(c)]) {
          mine.push_back(server.submit({in}));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    long long mismatches = 0;
    for (int c = 0; c < clients; ++c) {
      for (std::size_t r = 0; r < futures[static_cast<std::size_t>(c)].size(); ++r) {
        const Tensor got = futures[static_cast<std::size_t>(c)][r].get().logits;
        const Tensor& want = expected[static_cast<std::size_t>(c)][r];
        for (std::size_t i = 0; i < got.numel(); ++i) {
          if (got[i] != want[i]) {
            ++mismatches;
            break;
          }
        }
      }
    }
    const double batched_s = ms_since(t0) / 1000.0;
    server.stop();

    const serve::ServerStats stats = server.stats();
    const double total = static_cast<double>(clients) * requests;
    TablePrinter table({"Metric", "Value"});
    table.add_row({"clients x requests",
                   std::to_string(clients) + " x " + std::to_string(requests)});
    table.add_row({"batches", std::to_string(stats.batches)});
    table.add_row({"mean batch", TablePrinter::fmt(stats.mean_batch, 2)});
    table.add_row({"serial throughput", TablePrinter::fmt(total / serial_s, 1) + " req/s"});
    table.add_row({"batched throughput", TablePrinter::fmt(total / batched_s, 1) + " req/s"});
    table.add_row({"batched / serial", TablePrinter::fmt(serial_s / batched_s, 2) + "x"});
    table.add_row({"latency p50 / p90 / p99",
                   TablePrinter::fmt(stats.p50_ms, 2) + " / " + TablePrinter::fmt(stats.p90_ms, 2) +
                       " / " + TablePrinter::fmt(stats.p99_ms, 2) + " ms"});
    table.add_row({"batched logits == serial", mismatches == 0 ? "yes" : "NO"});
    std::cout << table.render();
    examples::print_metrics_section("Registry metrics:", "serve.");
    examples::write_observability_outputs(args);
    return mismatches == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
