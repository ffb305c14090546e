// Single-layer probes, one level of the hierarchy at a time (the
// CommBench method): a fiber switch, a mailbox handoff, world spin-up,
// one collective per algorithm at 128 ranks, and forest training. Each
// probe warms up, then times a fixed number of operations in several
// batches and reports the median per-operation time.

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <vector>

#include "ffbench.hpp"
#include "minimpi/fiber.hpp"
#include "minimpi/mpi.hpp"
#include "minimpi/world.hpp"
#include "ml/random_forest.hpp"
#include "support/rng.hpp"

namespace ffbench {

namespace mpi = fastfit::mpi;
namespace ml = fastfit::ml;

namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

constexpr int kBatches = 5;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over kBatches timed batches (after one warm-up batch) of the
/// per-operation time in microseconds. `batch` returns the elapsed
/// microseconds of `ops` operations.
double per_op_us(const std::function<double()>& batch, int ops) {
  batch();
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) samples.push_back(batch() / ops);
  return median(samples);
}

double elapsed_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

mpi::WorldOptions world_options(int nranks, mpi::CollectiveAlgorithms algorithms = {}) {
  mpi::WorldOptions o;
  o.nranks = nranks;
  o.watchdog = 10000ms;
  o.algorithms = algorithms;
  return o;
}

void require_clean(const mpi::WorldResult& result, const char* probe) {
  if (!result.clean()) {
    throw std::runtime_error(std::string("probe world failed: ") + probe);
  }
}

/// Two fibers hand control back and forth through the scheduler; one
/// operation is one park-and-resume of a fiber.
double fiber_switch_us(int rounds) {
  return per_op_us(
      [rounds] {
        mpi::FiberScheduler scheduler(2);
        const auto t0 = Clock::now();
        scheduler.run(
            [&scheduler, rounds](int self) {
              for (int i = 0; i < rounds; ++i) {
                scheduler.make_ready(1 - self);
                scheduler.block_current();
              }
              scheduler.make_ready(1 - self);
            },
            [] { throw std::runtime_error("fiber probe went idle"); });
        return elapsed_us(t0);
      },
      2 * rounds);
}

/// Ping-pong between two ranks, timed inside rank 0 so world spin-up is
/// excluded; one operation is one send→recv handoff.
double handoff_us(int rounds) {
  return per_op_us(
      [rounds] {
        double us = 0;
        mpi::World world(world_options(2));
        const auto result = world.run([rounds, &us](mpi::Mpi& m) {
          mpi::RegisteredBuffer<double> buf(m.registry(), 1, 1.0);
          const int peer = 1 - m.rank();
          const auto t0 = Clock::now();
          for (int i = 0; i < rounds; ++i) {
            if (m.rank() == 0) {
              m.send(buf.data(), 1, mpi::kDouble, peer, 7);
              m.recv(buf.data(), 1, mpi::kDouble, peer, 7);
            } else {
              m.recv(buf.data(), 1, mpi::kDouble, peer, 7);
              m.send(buf.data(), 1, mpi::kDouble, peer, 7);
            }
          }
          if (m.rank() == 0) us = elapsed_us(t0);
        });
        require_clean(result, "handoff");
        return us;
      },
      2 * rounds);
}

/// A 128-rank world that runs an empty body.
double spinup_us(int worlds) {
  return per_op_us(
      [worlds] {
        const auto t0 = Clock::now();
        for (int w = 0; w < worlds; ++w) {
          mpi::World world(world_options(128));
          require_clean(world.run([](mpi::Mpi&) {}), "spin-up");
        }
        return elapsed_us(t0);
      },
      worlds);
}

/// `reps` calls of one collective on a 128-rank world, timed in rank 0
/// from a leading barrier; every rank runs on the same thread, so rank
/// 0's clock spans all ranks' work.
double collective_us(mpi::CollectiveAlgorithms algorithms, int reps,
                     const std::function<void(mpi::Mpi&, double*, double*)>& op) {
  return per_op_us(
      [&] {
        double us = 0;
        mpi::World world(world_options(128, algorithms));
        const auto result = world.run([&](mpi::Mpi& m) {
          mpi::RegisteredBuffer<double> send(m.registry(), 16, 1.0);
          mpi::RegisteredBuffer<double> recv(m.registry(), 16);
          m.barrier();
          const auto t0 = Clock::now();
          for (int i = 0; i < reps; ++i) op(m, send.data(), recv.data());
          m.barrier();
          if (m.rank() == 0) us = elapsed_us(t0);
        });
        require_clean(result, "collective");
        return us;
      },
      reps);
}

double forest_train_ms(std::size_t trees) {
  ml::Dataset data(4);
  fastfit::RngStream rng(1, "ffbench-forest");
  for (int i = 0; i < 400; ++i) {
    ml::FeatureVec x{};
    for (auto& v : x) v = rng.uniform() * 10;
    data.add(x, rng.index(4));
  }
  ml::ForestConfig config;
  config.n_trees = trees;
  return per_op_us(
             [&] {
               const auto t0 = Clock::now();
               const auto forest = ml::RandomForest::train(data, config);
               if (forest.predict(data.samples().front().x) >= 4) {
                 throw std::runtime_error("forest probe: bad label");
               }
               return elapsed_us(t0);
             },
             1) /
         1e3;
}

}  // namespace

std::string run_probes(bool tiny) {
  const int scale = tiny ? 10 : 1;
  JsonLine line;
  line.num("minimpi.ctx_switch_ns", 1e3 * fiber_switch_us(200000 / scale));
  line.num("minimpi.handoff_us", handoff_us(20000 / scale));
  line.num("minimpi.spinup_us.r128", spinup_us(40 / scale));

  const int reps = 64 / (tiny ? 8 : 1);
  mpi::CollectiveAlgorithms defaults;
  line.num("minimpi.barrier_us.r128",
           collective_us(defaults, reps, [](mpi::Mpi& m, double*, double*) { m.barrier(); }));
  const auto allreduce = [](mpi::Mpi& m, double* s, double* r) {
    m.allreduce(s, r, 16, mpi::kDouble, mpi::kSum);
  };
  const auto bcast = [](mpi::Mpi& m, double* s, double*) {
    m.bcast(s, 16, mpi::kDouble, 0);
  };
  mpi::CollectiveAlgorithms algo;
  algo.allreduce = mpi::CollectiveAlgorithms::Allreduce::RecursiveDoubling;
  line.num("minimpi.allreduce_us.recursive_doubling.r128", collective_us(algo, reps, allreduce));
  algo.allreduce = mpi::CollectiveAlgorithms::Allreduce::ReduceBcast;
  line.num("minimpi.allreduce_us.reduce_bcast.r128", collective_us(algo, reps, allreduce));
  algo = {};
  algo.bcast = mpi::CollectiveAlgorithms::Bcast::Binomial;
  line.num("minimpi.bcast_us.binomial.r128", collective_us(algo, reps, bcast));
  algo.bcast = mpi::CollectiveAlgorithms::Bcast::Chain;
  line.num("minimpi.bcast_us.chain.r128", collective_us(algo, reps, bcast));

  line.num("ml.forest_train_ms.t64", forest_train_ms(tiny ? 8 : 64));
  return line.render();
}

}  // namespace ffbench
