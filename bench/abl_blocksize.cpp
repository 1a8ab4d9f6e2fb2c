// Ablation A — pipeline block-size sensitivity. The paper tunes the block
// size per message size ("128 KiB ... for messages smaller than 9 MiB and
// 512 KiB blocks for larger messages", Section V.A). This bench sweeps the
// block size across message sizes, reports the best block per size, and
// locates the 128K/512K crossover.
#include "bench_util.hpp"

using namespace dacc;

int main() {
  const std::vector<std::uint64_t> blocks = {32_KiB,  64_KiB,  128_KiB,
                                             256_KiB, 512_KiB, 1_MiB,
                                             2_MiB};
  const std::vector<std::uint64_t> sizes = {1_MiB, 2_MiB, 4_MiB, 6_MiB,
                                            8_MiB, 9_MiB, 12_MiB, 16_MiB,
                                            32_MiB, 64_MiB};

  std::vector<std::string> headers{"size"};
  for (auto b : blocks) headers.push_back(bench::size_label(b));
  headers.emplace_back("best");
  util::Table table(headers);

  std::uint64_t crossover = 0;
  bool was_128_better = true;
  for (const std::uint64_t size : sizes) {
    table.row().add(bench::size_label(size));
    double best_bw = 0.0;
    std::uint64_t best_block = 0;
    double bw128 = 0.0;
    double bw512 = 0.0;
    for (const std::uint64_t block : blocks) {
      const auto p = bench::remote_copy(
          size, proto::TransferConfig::pipeline(block), true);
      table.add(p.mib_s, 0);
      if (p.mib_s > best_bw) {
        best_bw = p.mib_s;
        best_block = block;
      }
      if (block == 128_KiB) bw128 = p.mib_s;
      if (block == 512_KiB) bw512 = p.mib_s;
      bench::register_result("abl_blocksize/h2d/" +
                                 bench::size_label(block) + "/" +
                                 bench::size_label(size),
                             p.elapsed, p.mib_s);
    }
    table.add(bench::size_label(best_block));
    if (was_128_better && bw512 > bw128 && crossover == 0) crossover = size;
    was_128_better = bw128 >= bw512;
  }

  std::printf(
      "Ablation A — H2D bandwidth [MiB/s] by pipeline block size\n"
      "(paper: 128K best below ~9 MiB, 512K above)\n\n");
  table.print(std::cout);
  if (crossover != 0) {
    std::printf("\n128K/512K crossover observed at ~%s (paper: ~9 MiB)\n\n",
                bench::size_label(crossover).c_str());
  }
  return bench::finish();
}
