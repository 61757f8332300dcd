// Micro-kernel benchmarks (google-benchmark):
//  * the Sec. V footnote claim — the per-cycle top-K contribution sort is
//    negligible next to a training step (paper: ~18 ms vs ~12 min);
//  * masked vs dense matmul (soft-training's compute saving);
//  * conv forward, per-neuron aggregation, and cost-model evaluation;
//  * thread-scaling variants of the parallelized kernels, plus a
//    machine-readable 1/2/4-thread sweep written to BENCH_parallel.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "util/atomic_file.h"
#include "util/host.h"
#include "core/soft_training.h"
#include "data/loader.h"
#include "device/cost_model.h"
#include "fl/server.h"
#include "fl/submodel.h"
#include "fl/sync.h"
#include "nn/conv2d.h"
#include "nn/sgd.h"
#include "obs/procstat.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace {

using namespace helios;

void BM_MatmulDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::matmul_masked_rows_into(a, b, {}, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatmulDense)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulMaskedHalf(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(2);
  tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) mask[static_cast<std::size_t>(i)] = i % 2;
  for (auto _ : state) {
    tensor::matmul_masked_rows_into(a, b, mask, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);  // half the MACs
}
BENCHMARK(BM_MatmulMaskedHalf)->Arg(128)->Arg(256);

void BM_LeNetTrainStep(benchmark::State& state) {
  nn::Model model = models::make_lenet({1, 28, 28, 10}, 3);
  nn::Sgd opt(0.05F);
  util::Rng rng(4);
  tensor::Tensor x = tensor::Tensor::randn({16, 1, 28, 28}, rng);
  std::vector<int> labels(16);
  for (auto& y : labels) y = static_cast<int>(rng.uniform_int(10));
  for (auto _ : state) {
    const auto r = nn::train_step(model, opt, x, labels);
    benchmark::DoNotOptimize(r.loss);
  }
}
BENCHMARK(BM_LeNetTrainStep);

// The Sec. V footnote: per-cycle soft-training selection (contribution
// update + per-layer top-K sort + random fill) vs the training cost above.
void BM_SoftTrainingSelection(benchmark::State& state) {
  nn::Model model = models::make_lenet({1, 28, 28, 10}, 5);
  core::SoftTrainerConfig cfg;
  cfg.keep_ratio = 0.3;
  core::SoftTrainer trainer(model, cfg);
  auto before = model.params_flat();
  auto after = before;
  util::Rng rng(6);
  for (float& v : after) v += static_cast<float>(rng.normal()) * 0.01F;
  for (auto _ : state) {
    trainer.update_contributions(before, after, {});
    auto mask = trainer.select_mask();
    benchmark::DoNotOptimize(mask.data());
  }
}
BENCHMARK(BM_SoftTrainingSelection);

void BM_ServerAggregate4Clients(benchmark::State& state) {
  fl::Server server(models::make_lenet({1, 28, 28, 10}, 7));
  util::Rng rng(8);
  std::vector<fl::ClientUpdate> updates(4);
  for (int i = 0; i < 4; ++i) {
    updates[static_cast<std::size_t>(i)].client_id = i;
    updates[static_cast<std::size_t>(i)].sample_count = 128;
    updates[static_cast<std::size_t>(i)].params.resize(server.param_count());
    for (float& v : updates[static_cast<std::size_t>(i)].params) {
      v = static_cast<float>(rng.normal());
    }
    if (i >= 2) {
      updates[static_cast<std::size_t>(i)].trained_mask =
          fl::random_volume_mask(server.reference_model(), 0.3, rng);
    }
  }
  fl::AggOptions opts;
  opts.hetero_volume_weights = true;
  for (auto _ : state) {
    server.aggregate(updates, opts);
    benchmark::DoNotOptimize(server.global().data());
  }
}
BENCHMARK(BM_ServerAggregate4Clients);

void BM_CostModelEvaluation(benchmark::State& state) {
  nn::Model model = models::make_lenet({1, 28, 28, 10}, 9);
  const auto profile = device::sim_scaled(device::deeplens_cpu());
  for (auto _ : state) {
    const auto w = device::estimate_workload(model, 128, 1);
    benchmark::DoNotOptimize(device::total_cycle_seconds(profile, w));
  }
}
BENCHMARK(BM_CostModelEvaluation);

void BM_Conv2dForward(benchmark::State& state) {
  util::Rng rng(10);
  nn::Conv2d conv(3, 32, 32, 8, 3, 1, 1, rng);
  tensor::Tensor x = tensor::Tensor::randn({8, 3, 32, 32}, rng);
  for (auto _ : state) {
    tensor::Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_SyntheticGeneration(benchmark::State& state) {
  data::SyntheticSpec spec = data::mnist_like_spec(256);
  for (auto _ : state) {
    util::Rng rng(11);
    data::Dataset d = data::make_synthetic(spec, rng);
    benchmark::DoNotOptimize(d.images.data());
  }
}
BENCHMARK(BM_SyntheticGeneration);

// ---------------------------------------------------------------------------
// Thread-scaling variants: the same kernels with the global pool resized per
// run (Arg = thread count). Results are bit-identical across counts — only
// the wall clock moves.
// ---------------------------------------------------------------------------

void BM_MatmulDenseThreads(benchmark::State& state) {
  util::set_global_threads(static_cast<int>(state.range(0)));
  const int n = 256;
  util::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::matmul_masked_rows_into(a, b, {}, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
  util::set_global_threads(0);
}
BENCHMARK(BM_MatmulDenseThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_Conv2dForwardThreads(benchmark::State& state) {
  util::set_global_threads(static_cast<int>(state.range(0)));
  util::Rng rng(10);
  nn::Conv2d conv(3, 32, 32, 16, 3, 1, 1, rng);
  tensor::Tensor x = tensor::Tensor::randn({16, 3, 32, 32}, rng);
  for (auto _ : state) {
    tensor::Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  util::set_global_threads(0);
}
BENCHMARK(BM_Conv2dForwardThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_LeNetTrainStepThreads(benchmark::State& state) {
  util::set_global_threads(static_cast<int>(state.range(0)));
  nn::Model model = models::make_lenet({1, 28, 28, 10}, 3);
  nn::Sgd opt(0.05F);
  util::Rng rng(4);
  tensor::Tensor x = tensor::Tensor::randn({16, 1, 28, 28}, rng);
  std::vector<int> labels(16);
  for (auto& y : labels) y = static_cast<int>(rng.uniform_int(10));
  for (auto _ : state) {
    const auto r = nn::train_step(model, opt, x, labels);
    benchmark::DoNotOptimize(r.loss);
  }
  util::set_global_threads(0);
}
BENCHMARK(BM_LeNetTrainStepThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ---------------------------------------------------------------------------
// BENCH_parallel.json: a hand-timed 1/2/4-thread sweep over the
// parallelized layers, from single kernels up to a full 6-device
// AlexNet-lite SyncFL cycle (the ISSUE's fleet-speedup target). Written
// after the google-benchmark run so CI can diff scaling machine-readably.
// ---------------------------------------------------------------------------

double time_best_seconds(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

struct SweepCase {
  std::string name;
  // seconds[i] is the best-of-reps wall time at kThreadCounts[i].
  std::vector<double> seconds;
};

constexpr int kThreadCounts[] = {1, 2, 4};

void write_parallel_scaling_json() {
  const bench::Scale scale = bench::scale_from_env();
  const int reps = scale.name == "quick" ? 2 : 3;
  std::vector<SweepCase> cases;

  {  // Dense 256^3 matmul.
    util::Rng rng(1);
    tensor::Tensor a = tensor::Tensor::randn({256, 256}, rng);
    tensor::Tensor b = tensor::Tensor::randn({256, 256}, rng);
    tensor::Tensor c({256, 256});
    SweepCase sc{"matmul_256", {}};
    for (int t : kThreadCounts) {
      util::set_global_threads(t);
      sc.seconds.push_back(time_best_seconds(reps, [&] {
        for (int i = 0; i < 8; ++i) {
          tensor::matmul_masked_rows_into(a, b, {}, c);
        }
        benchmark::DoNotOptimize(c.data());
      }));
    }
    cases.push_back(std::move(sc));
  }

  {  // Conv2d forward, AlexNet-lite-like shape.
    util::Rng rng(10);
    nn::Conv2d conv(3, 32, 32, 16, 3, 1, 1, rng);
    tensor::Tensor x = tensor::Tensor::randn({16, 3, 32, 32}, rng);
    SweepCase sc{"conv2d_forward", {}};
    for (int t : kThreadCounts) {
      util::set_global_threads(t);
      sc.seconds.push_back(time_best_seconds(reps, [&] {
        for (int i = 0; i < 8; ++i) {
          tensor::Tensor y = conv.forward(x, false);
          benchmark::DoNotOptimize(y.data());
        }
      }));
    }
    cases.push_back(std::move(sc));
  }

  {  // Full LeNet train step (forward + backward + SGD).
    nn::Model model = models::make_lenet({1, 28, 28, 10}, 3);
    nn::Sgd opt(0.05F);
    util::Rng rng(4);
    tensor::Tensor x = tensor::Tensor::randn({16, 1, 28, 28}, rng);
    std::vector<int> labels(16);
    for (auto& y : labels) y = static_cast<int>(rng.uniform_int(10));
    SweepCase sc{"lenet_train_step", {}};
    for (int t : kThreadCounts) {
      util::set_global_threads(t);
      sc.seconds.push_back(time_best_seconds(reps, [&] {
        for (int i = 0; i < 4; ++i) {
          benchmark::DoNotOptimize(nn::train_step(model, opt, x, labels).loss);
        }
      }));
    }
    cases.push_back(std::move(sc));
  }

  {  // One SyncFL cycle on the 6-device AlexNet-lite fleet: round-level
     // fan-out is the dominant lever here. A fresh fleet per measurement
     // keeps the timed work identical; accuracies must agree bit-for-bit.
    const bench::TaskSpec task = bench::alexnet_task(scale);
    bench::FleetSetup setup;
    setup.devices = 6;
    setup.stragglers = 3;
    SweepCase sc{"fleet_round_alexnet6", {}};
    double reference_accuracy = -1.0;
    bool identical = true;
    for (int t : kThreadCounts) {
      util::set_global_threads(t);
      double best = 1e300;
      for (int r = 0; r < reps; ++r) {
        fl::Fleet fleet = bench::build_fleet(task, setup);
        fl::SyncFL strategy;
        const auto t0 = std::chrono::steady_clock::now();
        const fl::RunResult result = strategy.run(fleet, 1);
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        best = std::min(best, dt.count());
        const double acc = result.rounds.back().test_accuracy;
        if (reference_accuracy < 0.0) reference_accuracy = acc;
        identical = identical && acc == reference_accuracy;
      }
      sc.seconds.push_back(best);
    }
    if (!identical) {
      std::cerr << "WARNING: fleet_round_alexnet6 accuracy differed across "
                   "thread counts (determinism contract violated)\n";
    }
    cases.push_back(std::move(sc));
  }
  util::set_global_threads(0);

  std::ostringstream os;  // buffered; replaced atomically below
  os << "{\n  \"schema\": 1,\n  \"scale\": \"" << scale.name << "\",\n"
     << "  \"host\": " << util::host_json(util::this_host()) << ",\n"
     << "  \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const SweepCase& sc = cases[i];
    os << "    {\"name\": \"" << sc.name << "\", \"runs\": [";
    for (std::size_t j = 0; j < sc.seconds.size(); ++j) {
      os << (j ? ", " : "") << "{\"threads\": " << kThreadCounts[j]
         << ", \"seconds\": " << sc.seconds[j] << "}";
    }
    os << "], \"speedup_4_vs_1\": "
       << (sc.seconds.back() > 0.0 ? sc.seconds.front() / sc.seconds.back()
                                   : 0.0)
       << "}" << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  const obs::ProcMemory mem = obs::read_proc_memory();
  os << "  ],\n  \"rss_mb\": " << mem.rss_mb
     << ",\n  \"peak_rss_mb\": " << mem.peak_rss_mb << "\n}\n";
  util::atomic_write_file("BENCH_parallel.json", os.str());
  std::cout << "wrote BENCH_parallel.json (" << cases.size() << " cases)\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  try {
    write_parallel_scaling_json();
  } catch (const std::exception& e) {
    std::cerr << "BENCH_parallel.json sweep failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
