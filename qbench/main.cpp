// qbench — the benchmark's binary; run.py is its entry point.
//
//   qbench --mode train    --out CKPT
//   qbench --mode prepare  --checkpoint CKPT --qcg QCG
//   qbench --mode scores   --qcg QCG --seed N --out FILE
//   qbench --mode offline|serve|search --checkpoint CKPT --qcg QCG
//          --seed N --seconds S [--oracle FILE] [--trace SPANS.json]
//
// Each mode prints one JSON object as its last stdout line.
#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  qbench::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--mode") a.mode = v;
    else if (k == "--checkpoint") a.checkpoint = v;
    else if (k == "--qcg") a.qcg = v;
    else if (k == "--out") a.out = v;
    else if (k == "--oracle") a.oracle = v;
    else if (k == "--trace") a.trace = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else {
      std::fprintf(stderr, "qbench: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  try {
    if (a.mode == "train") qbench::run_train(a);
    else if (a.mode == "prepare") qbench::run_prepare(a);
    else if (a.mode == "scores") qbench::run_scores(a);
    else if (a.mode == "offline") qbench::run_offline(a);
    else if (a.mode == "serve") qbench::run_serve(a);
    else if (a.mode == "search") qbench::run_search(a);
    else {
      std::fprintf(stderr, "qbench: unknown mode '%s'\n", a.mode.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qbench %s: %s\n", a.mode.c_str(), e.what());
    return 1;
  }
  return 0;
}
