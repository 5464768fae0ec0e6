// S5b — streaming memory (Section 5 / [40]): a streaming evaluator for
// (forward) Core XPath needs memory linear in the document depth — and our
// matcher uses no more than that: peak state is (depth+1) frames of O(|Q|)
// bytes, independent of document *size*. Two sweeps make the shape visible:
// depth sweep at ~fixed size (linear growth) and size sweep at fixed depth
// (flat). Throughput is timed as events/second.

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdio>

#include "stream/stream_eval.h"
#include "tree/generator.h"
#include "util/random.h"
#include "xpath/parser.h"

namespace {

constexpr const char* kQuery = "//a[b]//c[not(d)]";

/// depth * width nodes: `width` chains of length `depth` under a root.
treeq::Tree Comb(int depth, int width) {
  treeq::TreeBuilder b;
  treeq::NodeId root = b.AddChild(treeq::kNullNode, "a");
  for (int w = 0; w < width; ++w) {
    treeq::NodeId prev = b.AddChild(root, "b");
    for (int d = 1; d < depth; ++d) prev = b.AddChild(prev, "c");
  }
  return std::move(b.Finish()).value();
}

treeq::stream::StreamProgram CompileQuery() {
  auto q = treeq::xpath::ParseXPath(kQuery).value();
  return std::move(treeq::stream::StreamProgram::Compile(*q)).value();
}

/// Prints both sweeps; with a record, adds one row per document:
/// sweep (0 = depth, 1 = size), depth, width, nodes, peak_frames, events,
/// matches. Every row field is deterministic. `matches` is 0 on every
/// comb: `//a` cannot select the root element under the current root
/// convention (ROADMAP item 2), and the root is the only `a`.
void RunSweeps(treeq::benchjson::Record* record) {
  const treeq::stream::StreamProgram program = CompileQuery();
  std::printf("=== streaming memory: O(depth * |Q|), size-independent ===\n");
  std::printf("query: %s (frame %zu B)\n\n", kQuery, program.frame_bytes());
  auto run = [&](int sweep, int depth, int width) {
    treeq::Tree t = Comb(depth, width);
    treeq::stream::StreamStats stats;
    auto r = treeq::stream::StreamMatcher::MatchTree(program, t, &stats);
    TREEQ_CHECK(r.ok());
    std::printf("%-8d %-8d %-8d %-12zu %-12zu\n", depth, width, t.num_nodes(),
                stats.peak_frames, stats.PeakStateBytes());
    if (record == nullptr) return;
    record->AddRow({{"sweep", sweep},
                    {"depth", depth},
                    {"width", width},
                    {"nodes", t.num_nodes()},
                    {"peak_frames", static_cast<double>(stats.peak_frames)},
                    {"events", static_cast<double>(stats.events)},
                    {"matches", r.value() ? 1 : 0}});
  };
  std::printf("depth sweep (size ~ 16k nodes):\n%-8s %-8s %-8s %-12s %-12s\n",
              "depth", "width", "nodes", "peak frames", "peak bytes");
  for (int depth : {4, 16, 64, 256, 1024}) run(0, depth, 16384 / depth);
  std::printf("\nsize sweep (depth fixed at 8):\n%-8s %-8s %-8s %-12s %-12s\n",
              "depth", "width", "nodes", "peak frames", "peak bytes");
  for (int width : {16, 256, 4096, 65536}) run(1, 8, width);
  std::printf("(peak bytes track depth, not node count — the [40] lower "
              "bound is tight)\n\n");
  if (record != nullptr) {
    record->SetString("query", kQuery);
    record->SetString("sweep0", "depth");
    record->SetString("sweep1", "size");
    record->SetNumber("frame_bytes",
                      static_cast<double>(program.frame_bytes()));
  }
}

void BM_StreamThroughput(benchmark::State& state) {
  const treeq::stream::StreamProgram program = CompileQuery();
  treeq::Tree t = Comb(8, static_cast<int>(state.range(0)));
  uint64_t events = 0;
  for (auto _ : state) {
    treeq::stream::StreamStats stats;
    auto r = treeq::stream::StreamMatcher::MatchTree(program, t, &stats);
    benchmark::DoNotOptimize(r.ok());
    events = stats.events;
  }
  state.SetItemsProcessed(static_cast<int64_t>(events) * state.iterations());
  state.SetComplexityN(t.num_nodes());
}
BENCHMARK(BM_StreamThroughput)
    ->Arg(128)
    ->Arg(1024)
    ->Arg(8192)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_DeepDocumentStream(benchmark::State& state) {
  const treeq::stream::StreamProgram program = CompileQuery();
  treeq::Tree t = Comb(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    auto r = treeq::stream::StreamMatcher::MatchTree(program, t);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_DeepDocumentStream)->Arg(64)->Arg(1024)->Unit(
    benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = treeq::benchjson::ExtractJsonPath(&argc, argv);
  if (!json_path.empty()) {
    // --json mode: the sweeps run once under a reset obs registry; their
    // rows, work counters and spans land in the record.
    return treeq::benchjson::WriteRecord(json_path, "bench_stream_memory",
                                         RunSweeps);
  }
  RunSweeps(nullptr);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
