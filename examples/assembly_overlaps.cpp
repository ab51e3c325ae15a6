// Fragment overlap detection via the suffix-prefix quadrant.
//
//   build/examples/assembly_overlaps [genome_length] [fragments]
//
// Shreds a synthetic genome into overlapping fragments (shuffled, with
// sequencing noise), then recovers the layout: for every ordered fragment
// pair (f, g) a single semi-local kernel of (f, g) yields
// LCS(suffix of f, prefix of g) for EVERY overlap length at once (90% id.) -- the
// overlap stage of an OLC assembler. The best successor chain is compared
// to the ground-truth fragment order.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/api.hpp"
#include "core/query_index.hpp"
#include "util/fasta.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace semilocal;

namespace {

struct Fragment {
  Sequence bases;
  Index true_start = 0;  // position in the genome (ground truth)
  int id = 0;
};

// Best overlap of a suffix of `f` with a prefix of `g`: maximise overlap
// length subject to >= 80% identity within the overlap.
struct Overlap {
  Index length = 0;
  Index score = 0;
};

Overlap best_overlap(const SemiLocalKernel& kernel) {
  const QueryIndex index(kernel);
  const Index m = index.m();
  const Index n = index.n();
  Overlap best;
  for (Index len = std::min(m, n); len >= 30; --len) {
    const Index score = index.suffix_prefix(m - len, len);
    if (score * 10 >= len * 9) {  // >= 90% identity
      best.length = len;
      best.score = score;
      break;  // longest acceptable overlap wins
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const Index genome_length = argc > 1 ? std::atoll(argv[1]) : 12000;
  const Index fragment_count = argc > 2 ? std::atoll(argv[2]) : 10;

  GenomeModel model;
  model.length = genome_length;
  const auto genome_record = generate_genome(model, 7);
  const Sequence genome = pack_dna(genome_record.residues);

  // Shred: fragments tile the genome with ~30% overlaps, plus 1% noise.
  const Index frag_len = genome_length / fragment_count * 13 / 10;
  std::vector<Fragment> fragments;
  Rng rng(8);
  for (Index f = 0; f < fragment_count; ++f) {
    const Index start =
        std::min(genome_length - frag_len, f * (genome_length - frag_len) / std::max<Index>(1, fragment_count - 1));
    const SequenceView view{genome.data() + start, static_cast<std::size_t>(frag_len)};
    Fragment frag;
    frag.bases = mutate_sequence(view, 0.01, frag_len / 100, 4, 50 + static_cast<std::uint64_t>(f));
    frag.true_start = start;
    frag.id = static_cast<int>(f);
    fragments.push_back(std::move(frag));
  }
  std::shuffle(fragments.begin(), fragments.end(), Rng(9).engine());
  std::cout << fragments.size() << " fragments of ~" << frag_len << " bp from a "
            << genome_length << " bp genome (shuffled, 1% noise)\n\n";

  // All-pairs suffix/prefix overlaps.
  Timer t;
  const Index k = static_cast<Index>(fragments.size());
  std::vector<Overlap> overlaps(static_cast<std::size_t>(k * k));
  for (Index i = 0; i < k; ++i) {
    for (Index j = 0; j < k; ++j) {
      if (i == j) continue;
      const auto kernel = semi_local_kernel(
          fragments[static_cast<std::size_t>(i)].bases,
          fragments[static_cast<std::size_t>(j)].bases,
          {.strategy = Strategy::kAntidiagSimd});
      overlaps[static_cast<std::size_t>(i * k + j)] = best_overlap(kernel);
    }
  }
  std::cout << "computed " << k * (k - 1) << " pairwise overlap profiles in " << t.seconds()
            << " s\n\n";

  // Greedy chain: start from the fragment that is nobody's good successor.
  Table table({"fragment", "true_start", "best_successor", "overlap_bp", "identity_pct"});
  std::vector<int> successor(static_cast<std::size_t>(k), -1);
  for (Index i = 0; i < k; ++i) {
    Index best_len = 0;
    int best_j = -1;
    for (Index j = 0; j < k; ++j) {
      if (i == j) continue;
      const auto& o = overlaps[static_cast<std::size_t>(i * k + j)];
      if (o.length > best_len) {
        best_len = o.length;
        best_j = static_cast<int>(j);
      }
    }
    successor[static_cast<std::size_t>(i)] = best_j;
    const auto& o = overlaps[static_cast<std::size_t>(i * k + best_j)];
    table.row()
        .cell(static_cast<long long>(fragments[static_cast<std::size_t>(i)].id))
        .cell(static_cast<long long>(fragments[static_cast<std::size_t>(i)].true_start))
        .cell(best_j >= 0 ? static_cast<long long>(fragments[static_cast<std::size_t>(best_j)].id) : -1LL)
        .cell(static_cast<long long>(o.length))
        .cell(o.length > 0 ? 100.0 * static_cast<double>(o.score) / static_cast<double>(o.length)
                           : 0.0,
              1);
  }
  table.print(std::cout, "best successor per fragment (suffix/prefix overlaps)");

  // Score the layout recovery: a successor is correct when its true start
  // is the next one along the genome.
  std::vector<Index> order(static_cast<std::size_t>(k));
  for (Index i = 0; i < k; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](Index x, Index y) {
    return fragments[static_cast<std::size_t>(x)].true_start <
           fragments[static_cast<std::size_t>(y)].true_start;
  });
  Index correct = 0;
  for (Index pos = 0; pos + 1 < k; ++pos) {
    const Index cur = order[static_cast<std::size_t>(pos)];
    const Index nxt = order[static_cast<std::size_t>(pos + 1)];
    if (successor[static_cast<std::size_t>(cur)] == static_cast<int>(nxt)) ++correct;
  }
  std::cout << "\nlayout recovery: " << correct << "/" << k - 1
            << " true adjacencies found\n";
  return 0;
}
