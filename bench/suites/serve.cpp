// Persistence + serving bench suite (tier 1): the cost of the .mnpkg
// round trip, the load-vs-recompile speedup the package format exists
// to deliver (acceptance bar: >= 5x — loading parses bytes while
// recompiling re-lowers, re-folds and re-runs PTQ calibration
// inference), and the batching server's throughput against a serial
// request loop on the same model and inputs.
#include <chrono>
#include <cstdio>

#include "bench/suites/common.hpp"
#include "src/compile/compiler.hpp"
#include "src/rt/runtime.hpp"
#include "src/serialize/serialize.hpp"
#include "src/serve/model_registry.hpp"
#include "src/serve/model_server.hpp"

namespace micronas {
namespace {

nb201::Genotype serve_genotype() {
  return nb201::Genotype::from_string(
      "|nor_conv_3x3~0|+|skip_connect~0|nor_conv_3x3~1|+"
      "|avg_pool_3x3~0|nor_conv_1x1~1|nor_conv_3x3~2|");
}

compile::CompilerOptions serve_options(bench::State& state, int default_input = 16) {
  compile::CompilerOptions options;
  options.macro.cells_per_stage = state.param_int("cells", 1);
  options.macro.input_size = state.param_int("input", default_input);
  return options;
}

double min_ms_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

// save -> load round trip; wall time of the case tracks one full
// round trip, and the counters break out the halves plus the headline
// load_vs_recompile_speedup (compile wall / load wall, both min-of-3).
BENCH_CASE_OPTS(serve, save_load,
                bench::CaseOptions{.warmup = 1, .min_reps = 3, .max_reps = 8, .tier = 1}) {
  const nb201::Genotype g = serve_genotype();
  const compile::CompilerOptions options = serve_options(state);
  const compile::CompiledModel model = compile::compile_genotype(g, options);

  const double compile_ms = min_ms_of(3, [&] {
    bench::do_not_optimize(compile::compile_genotype(g, options).graph.size());
  });
  std::vector<std::byte> bytes = serialize::save_model_bytes(model);
  const double save_ms = min_ms_of(3, [&] {
    bench::do_not_optimize(serialize::save_model_bytes(model).size());
  });
  const double load_ms = min_ms_of(3, [&] {
    bench::do_not_optimize(serialize::load_model_bytes(bytes).graph.size());
  });

  for (auto _ : state) {
    std::vector<std::byte> packed = serialize::save_model_bytes(model);
    const compile::CompiledModel loaded = serialize::load_model_bytes(packed);
    bench::do_not_optimize(loaded.graph.size());
  }
  state.counter("package_kb", static_cast<double>(bytes.size()) / 1024.0);
  state.counter("compile_ms", compile_ms);
  state.counter("save_ms", save_ms);
  state.counter("load_ms", load_ms);
  state.counter("load_vs_recompile_speedup", compile_ms / load_ms);
  state.set_items_processed(1);
  state.set_bytes_processed(static_cast<double>(bytes.size()));
}

// Registry loading: the mmap-backed MappedPackage path vs the copying
// load_model() path, same .mnpkg file (written to a scratch path and
// removed at the end). Both halves validate every section checksum;
// what the mapped path removes is reading + copying the weight
// payload, so mapped_vs_copy is the zero-copy dividend at load time.
// The shared-weight story is counted, not sampled: resident_weight_kb
// is what N registry loads of the same package keep resident (one
// mapping) vs copied_weight_kb for N copy-loads (N arenas) —
// deterministic byte accounting instead of RSS noise. Wall time of
// the case tracks one mapped load.
BENCH_CASE_OPTS(serve, registry_load,
                bench::CaseOptions{.warmup = 1, .min_reps = 3, .max_reps = 8, .tier = 1}) {
  const compile::CompilerOptions options = serve_options(state);
  const int loads = state.param_int("loads", 4);
  const std::string path = "bench_registry_load.mnpkg";
  serialize::save_model(compile::compile_genotype(serve_genotype(), options), path);

  const double copy_load_ms = min_ms_of(3, [&] {
    bench::do_not_optimize(serialize::load_model(path).graph.size());
  });
  const double mapped_load_ms = min_ms_of(3, [&] {
    bench::do_not_optimize(serialize::MappedPackage::map(path)->zero_copy_bytes());
  });

  // N loads through one registry: first maps, the rest dedupe to the
  // same mapping (registry_hit_us prices the hit — a map + validate +
  // table probe, no second copy of anything).
  serve::ModelRegistry registry;
  const serve::ModelRegistry::Entry first = registry.load(path);
  const double hit_ms = min_ms_of(loads - 1 > 0 ? loads - 1 : 1, [&] {
    bench::do_not_optimize(registry.load(path).model.get());
  });
  const double weight_kb = static_cast<double>(first.package->zero_copy_bytes()) / 1024.0;

  for (auto _ : state) {
    bench::do_not_optimize(serialize::MappedPackage::map(path)->zero_copy_bytes());
  }
  std::remove(path.c_str());

  state.counter("copy_load_ms", copy_load_ms);
  state.counter("mapped_load_ms", mapped_load_ms);
  state.counter("mapped_vs_copy", copy_load_ms / mapped_load_ms);
  state.counter("registry_hit_us", hit_ms * 1000.0);
  state.counter("zero_copy_kb", weight_kb);
  state.counter("resident_weight_kb", weight_kb);  // N loads, ONE mapping
  state.counter("copied_weight_kb", weight_kb * loads);
  state.set_items_processed(1);
  state.set_bytes_processed(static_cast<double>(first.package->file_bytes()));
}

std::vector<Tensor> serve_inputs(int requests, int input_size) {
  DatasetSpec spec;
  spec.height = spec.width = input_size;
  Rng rng(7);
  SyntheticDataset data(spec, rng);
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) inputs.push_back(data.sample_batch(1, rng).images);
  return inputs;
}

/// One burst: submit every input, then drain every future. Returns the
/// min wall ms over `reps` bursts.
double burst_ms(serve::ModelServer& server, const std::vector<Tensor>& inputs, int reps) {
  return min_ms_of(reps, [&] {
    std::vector<std::future<Tensor>> futures;
    futures.reserve(inputs.size());
    for (const Tensor& in : inputs) futures.push_back(server.submit(in));
    for (std::future<Tensor>& f : futures) bench::do_not_optimize(f.get().numel());
  });
}

// Batched server vs a serial request loop, same loaded model and
// inputs; wall time of the case tracks the batched pass
// (items_processed counts its requests). The server runs one
// Executor::run_batch per coalesced batch. The batched logits are
// asserted bit-identical to serial in tests/test_serve.cpp and
// tests/test_batched_executor.cpp; here only the throughput race is
// measured.
BENCH_CASE_OPTS(serve, batched_vs_serial,
                bench::CaseOptions{.warmup = 1, .min_reps = 3, .max_reps = 8, .tier = 1}) {
  const compile::CompilerOptions options = serve_options(state);
  const int requests = state.param_int("requests", 32);
  const int max_batch = state.param_int("max_batch", 8);
  const int threads = state.param_int("threads", 0);

  const std::vector<std::byte> bytes =
      serialize::save_model_bytes(compile::compile_genotype(serve_genotype(), options));
  const std::vector<Tensor> inputs = serve_inputs(requests, options.macro.input_size);

  compile::CompiledModel serial_model = serialize::load_model_bytes(bytes);
  rt::Executor serial(serial_model.graph, serial_model.plan, rt::ExecOptions{1});
  serial.run(inputs[0]);  // warm
  const double serial_ms = min_ms_of(2, [&] {
    for (const Tensor& in : inputs) bench::do_not_optimize(serial.run(in).numel());
  });

  serve::ServerOptions sopts;
  sopts.max_batch = max_batch;
  sopts.max_wait_us = 2000;
  sopts.threads = threads;
  serve::ModelServer server(serialize::load_model_bytes(bytes), sopts);

  double batched_ms = 1e300;
  for (auto _ : state) {
    batched_ms = std::min(batched_ms, burst_ms(server, inputs, 1));
  }
  const serve::ServerStats stats = server.stats();
  state.counter("serial_rps", 1000.0 * requests / serial_ms);
  state.counter("batched_rps", 1000.0 * requests / batched_ms);
  state.counter("batch_speedup", serial_ms / batched_ms);
  state.counter("mean_batch", stats.mean_batch);
  state.set_items_processed(requests);
}

// Overload behavior: a burst far past the bounded queue against a
// server with tight deadlines. Wall time tracks one overload burst
// (submit everything, drain every future — logits or admission
// error); the counters expose how the load split. The admission
// ledger itself (accepted == completed + dropped, submitted ==
// accepted + rejected) is asserted in tests/test_serve_overload.cpp;
// here the cost of saying no is measured: rejection is synchronous
// and must stay cheap.
BENCH_CASE_OPTS(serve, serve_overload,
                bench::CaseOptions{.warmup = 1, .min_reps = 3, .max_reps = 8, .tier = 1}) {
  const compile::CompilerOptions options = serve_options(state);
  const int requests = state.param_int("requests", 256);
  const int max_batch = state.param_int("max_batch", 8);

  serve::ServerOptions sopts;
  sopts.max_batch = max_batch;
  sopts.max_wait_us = 200;
  sopts.threads = state.param_int("threads", 0);
  sopts.max_queue = static_cast<std::size_t>(state.param_int("max_queue", 16));
  serve::ModelServer server(
      compile::compile_genotype(serve_genotype(), options), sopts);
  const std::vector<Tensor> inputs = serve_inputs(requests, options.macro.input_size);

  long long rejected = 0;
  long long served = 0;
  for (auto _ : state) {
    std::vector<std::future<Tensor>> futures;
    futures.reserve(inputs.size());
    for (const Tensor& in : inputs) {
      try {
        futures.push_back(server.submit(in));
      } catch (const serve::QueueFullError&) {
        ++rejected;
      }
    }
    for (std::future<Tensor>& f : futures) {
      try {
        bench::do_not_optimize(f.get().numel());
        ++served;
      } catch (const serve::DeadlineExpiredError&) {
      }
    }
  }
  const serve::ServerStats stats = server.stats();
  const long long offered = served + rejected + (stats.dropped);
  state.counter("served", static_cast<double>(served));
  state.counter("rejected", static_cast<double>(rejected));
  state.counter("dropped", static_cast<double>(stats.dropped));
  state.counter("rejected_fraction",
                offered > 0 ? static_cast<double>(rejected) / static_cast<double>(offered) : 0.0);
  state.set_items_processed(requests);
}

}  // namespace
}  // namespace micronas
