// Ablation D — the economy argument (paper Sections I/III): a static
// architecture binds one GPU to each compute node, so a job needing three
// GPUs must occupy three nodes, and a CPU-only job still locks up its
// node's GPU. The dynamic architecture draws accelerators from a shared
// pool through the ARM. Same arrival stream, same hardware total (4 compute
// nodes, 4 GPUs) — only the attachment (and, for the third row, the ARM's
// queue policy) differs.
#include <deque>

#include "arm/arm.hpp"
#include "bench_util.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"

using namespace dacc;

namespace {

struct Task {
  int id = 0;
  std::uint32_t gpus = 0;
  SimDuration duration = 0;
  SimTime arrival = 0;
};

std::vector<Task> make_mix(int count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Task> tasks;
  SimTime clock = 0;
  for (int i = 0; i < count; ++i) {
    const double p = rng.next_double();
    std::uint32_t k = 0;
    if (p > 0.30) k = 1;
    if (p > 0.65) k = 2;
    if (p > 0.85) k = 3;
    clock += static_cast<SimDuration>(rng.exponential(1.0 / 8.0) * 1.0e6);
    tasks.push_back(Task{i, k,
                         static_cast<SimDuration>(
                             rng.uniform(5.0, 40.0) * 1.0e6),
                         clock});
  }
  return tasks;
}

/// All-or-nothing FCFS counting resource (a node pool): a request for n
/// units is granted atomically, in arrival order, with no backfill.
class FifoPool {
 public:
  FifoPool(sim::Engine& engine, int units)
      : engine_(engine), free_(units) {}

  void acquire(sim::Context& ctx, int n) {
    if (queue_.empty() && free_ >= n) {
      free_ -= n;
      return;
    }
    Waiter w{&ctx.self(), n, false};
    queue_.push_back(&w);
    while (!w.granted) ctx.suspend();
  }

  void release(int n) {
    free_ += n;
    while (!queue_.empty() && queue_.front()->n <= free_) {
      Waiter* head = queue_.front();
      queue_.pop_front();
      free_ -= head->n;
      head->granted = true;
      engine_.wake(*head->process);
    }
  }

 private:
  struct Waiter {
    sim::Process* process;
    int n;
    bool granted;
  };
  sim::Engine& engine_;
  int free_;
  std::deque<Waiter*> queue_;
};

struct Outcome {
  SimDuration makespan = 0;
  SimDuration total_wait = 0;
  double gpu_utilization = 0.0;
};

/// Static architecture: 4 node+GPU bundles; a task needing k GPUs occupies
/// max(k, 1) bundles for its whole duration.
Outcome run_static(const std::vector<Task>& tasks) {
  sim::Engine engine;
  FifoPool bundles(engine, 4);
  Outcome out;
  SimDuration gpu_busy = 0;

  for (const Task& task : tasks) {
    engine.spawn("task" + std::to_string(task.id), [&, task](
                                                       sim::Context& ctx) {
      ctx.wait_until(task.arrival);
      const int need = static_cast<int>(std::max<std::uint32_t>(task.gpus, 1));
      const SimTime submitted = ctx.now();
      bundles.acquire(ctx, need);
      out.total_wait += ctx.now() - submitted;
      gpu_busy += task.gpus * task.duration;
      ctx.wait_for(task.duration);
      bundles.release(need);
    });
  }
  engine.run();
  out.makespan = engine.now();
  out.gpu_utilization = static_cast<double>(gpu_busy) /
                        (4.0 * static_cast<double>(out.makespan));
  return out;
}

/// Dynamic architecture: 4 compute nodes plus 4 pooled GPUs behind a real
/// ARM. A task occupies one node and exactly the GPUs it needs. The ARM
/// deployment is a rank set, not a single baked-in rank — the client takes
/// the whole endpoint list, so swapping in a replicated group (DESIGN.md
/// §11) is a one-line change here.
constexpr dmpi::Rank kArmRank = 1;
const std::vector<dmpi::Rank> kArmEndpoints{kArmRank};

Outcome run_dynamic(const std::vector<Task>& tasks,
                    arm::QueuePolicy policy) {
  sim::Engine engine;
  net::Fabric fabric(engine, 2);
  dmpi::World world(engine, fabric, {0, kArmRank});
  std::vector<arm::AcceleratorInfo> pool;
  for (int i = 0; i < 4; ++i) {
    pool.push_back(arm::AcceleratorInfo{kArmRank, "ac" + std::to_string(i)});
  }
  arm::Arm arm(world, kArmRank, std::move(pool), policy);
  sim::Process& armp =
      engine.spawn("arm", [&](sim::Context& ctx) { arm.run(ctx); });
  engine.set_daemon(armp);

  FifoPool nodes(engine, 4);
  Outcome out;

  for (const Task& task : tasks) {
    engine.spawn("task" + std::to_string(task.id), [&, task](
                                                       sim::Context& ctx) {
      dmpi::Mpi mpi(world, ctx, 0);
      arm::ArmClient client(mpi, world.world_comm(), kArmEndpoints);
      ctx.wait_until(task.arrival);
      const SimTime submitted = ctx.now();
      nodes.acquire(ctx, 1);
      if (task.gpus > 0) {
        const auto leases = client.acquire(
            arm::ResourceRequest{}
                .with_job(static_cast<std::uint64_t>(task.id) + 1)
                .with_count(task.gpus)
                .with_wait());
        if (leases.size() != task.gpus) {
          throw std::runtime_error("scheduler bench: acquire failed");
        }
      }
      out.total_wait += ctx.now() - submitted;
      ctx.wait_for(task.duration);
      nodes.release(1);
      if (task.gpus > 0) {
        (void)client.release_job(static_cast<std::uint64_t>(task.id) + 1);
      }
    });
  }
  engine.run();
  out.makespan = engine.now();
  double util_sum = 0.0;
  for (double u : arm.machine().utilization(engine.now())) util_sum += u;
  out.gpu_utilization = util_sum / 4.0;
  return out;
}

}  // namespace

int main() {
  util::Table table({"job mix", "arch", "makespan [ms]", "mean wait [ms]",
                     "GPU util"});
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto tasks = make_mix(32, seed);
    const Outcome st = run_static(tasks);
    const Outcome dy = run_dynamic(tasks, arm::QueuePolicy::kFcfs);
    const Outcome bf = run_dynamic(tasks, arm::QueuePolicy::kBackfill);
    const auto n = static_cast<double>(tasks.size());
    auto add_row = [&](const char* arch, const Outcome& o) {
      table.row()
          .add("mix-" + std::to_string(seed))
          .add(arch)
          .add(to_ms(o.makespan), 1)
          .add(to_ms(o.total_wait) / n, 1)
          .add(o.gpu_utilization, 2);
    };
    add_row("static", st);
    add_row("dynamic", dy);
    add_row("dyn+backfill", bf);
    bench::register_result("abl_scheduler/static/mix" + std::to_string(seed),
                           st.makespan);
    bench::register_result(
        "abl_scheduler/dynamic/mix" + std::to_string(seed), dy.makespan);
    bench::register_result(
        "abl_scheduler/backfill/mix" + std::to_string(seed), bf.makespan);
  }

  std::printf(
      "Ablation D — scheduling a Poisson job stream on 4 nodes + 4 GPUs\n"
      "(static: GPUs bound 1-per-node; dynamic: pooled behind the ARM;\n"
      " dyn+backfill: pooled with EASY-style backfill at the ARM)\n\n");
  table.print(std::cout);
  std::printf("\n");
  return bench::finish();
}
