// Op/variable descriptors for the dependency engine (dep_engine.hpp).
//
// The paper's double pipeline (Sec. 4, Figs. 5/6) overlaps PCIe transfers
// with GPU kernels and a layer's reconstruct with neighbouring layers' GPU
// ops. Instead of hand-sequencing that overlap per call site, operations
// declare *read* and *write* sets over versioned variables (device buffers,
// opened operands) and the engine runs
// anything whose dependencies are satisfied — mxnet-style. A variable is
// pure identity: its scheduling state lives inside the engine, keyed by the
// handle, so a Var can be created and dropped freely by layer code.
#pragma once

#include <functional>
#include <memory>
#include <vector>

namespace psml::sgpu {
class Stream;
}

namespace psml::pipeline {

class DepEngine;
struct OpNode;  // engine-internal

// A schedulable resource. Ops naming it in `reads` may run concurrently
// with each other; an op naming it in `writes` gets it exclusively, in
// FIFO order against every other op that names it.
class Var {
 public:
  const char* name() const { return name_; }

 private:
  friend class DepEngine;
  explicit Var(const char* name) : name_(name) {}
  const char* name_;
};

// Vars are handles: ops hold shared ownership while in flight, so a layer
// can drop its handle without invalidating a scheduled graph.
using VarHandle = std::shared_ptr<Var>;

// Which executor runs the op body:
//   kInline — the thread that made the op ready (the pushing thread, or the
//             thread that completed its last dependency). For CPU work that
//             is cheap or already parallel inside (packed GEMM).
//   kStream — the body runs inline but *enqueues* async device work on the
//             given sgpu::Stream; the op completes when the stream reaches
//             the end of that work (the engine plants a completion marker).
//             H2D/D2H copies and kernels; the engine's only off-thread work.
struct Exec {
  enum class Kind { kInline, kStream };

  Kind kind = Kind::kInline;
  sgpu::Stream* stream = nullptr;  // kStream only

  static Exec inline_thread() { return {Kind::kInline, nullptr}; }
  static Exec on_stream(sgpu::Stream& s) { return {Kind::kStream, &s}; }
};

// One operation: a body plus its declared dependency footprint. A var may
// appear at most once across reads+writes (a write grant is exclusive, so a
// duplicate would wait on itself); read-modify-write vars go in `writes`.
struct Op {
  std::function<void()> fn;
  std::vector<VarHandle> reads;
  std::vector<VarHandle> writes;
  Exec where;
  const char* name = "op";
};

}  // namespace psml::pipeline
