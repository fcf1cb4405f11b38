// Compiler-specific attributes. Each macro is a no-op off GCC and Clang.
#pragma once

/// Start a function's code on a 64-byte (cache line) boundary. Only for a
/// hot loop whose speed was measured to depend on where the linker places
/// it; say at the use why.
#if defined(__GNUC__) || defined(__clang__)
#define ESRP_CODE_ALIGN_64 __attribute__((aligned(64)))
#else
#define ESRP_CODE_ALIGN_64
#endif
