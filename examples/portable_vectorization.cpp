// Portable vectorization (the Table 1 story, narrated): compile `sum u8`
// once with the vectorizer on, dump the bytecode to show the portable
// builtins, then watch the same module run SIMD-style on x86sim and
// de-vectorized on sparcsim/ppcsim -- including the generated machine
// code for each.
#include <cstdio>

#include "api/svc.h"
#include "bytecode/disassembler.h"
#include "support/rng.h"

using namespace svc;

int main() {
  const KernelInfo& kernel = table1_kernels()[4];  // sum u8

  const Engine engine = Engine::Builder().build().value();
  const ModuleHandle module = engine.compile(kernel.source).value();

  std::printf("=== portable bytecode (one image for every core) ===\n%s\n",
              disassemble(*module).c_str());

  constexpr int kN = 2048;
  for (TargetKind kind : table1_targets()) {
    // One single-core deployment per ISA: the same handle deploys
    // everywhere.
    Deployment device = engine.deploy(module, {{kind, false}}).value();

    Memory& mem = device.memory();
    Rng rng(7);
    int expect = 0;
    for (int i = 0; i < kN; ++i) {
      const auto v = static_cast<uint8_t>(rng.next_u32());
      mem.store_u8(4096 + static_cast<uint32_t>(i), v);
      expect += v;
    }
    const SimResult r =
        device
            .run(kernel.fn_name, {Value::make_i32(4096), Value::make_i32(kN)})
            .value();
    std::printf("=== %s ===\n", device.soc().core(0).desc().name.c_str());
    std::printf("result %d (expected %d), %llu cycles, %llu insts, "
                "%llu spill ops\n",
                r.value.i32, expect,
                static_cast<unsigned long long>(r.stats.cycles),
                static_cast<unsigned long long>(r.stats.instructions),
                static_cast<unsigned long long>(r.stats.spill_loads +
                                                r.stats.spill_stores));
    if (kind == TargetKind::X86Sim || kind == TargetKind::SparcSim) {
      std::printf("generated code:\n%s\n",
                  (*device.soc().core(0).code())[0]->str().c_str());
    }
  }
  return 0;
}
