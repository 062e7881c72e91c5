//===- support/StackHeadroom.h - Remaining stack of a thread ----*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A guard for recursive evaluators whose frame-count limits were sized
/// for optimized frames. Instrumented builds (-O0, ASan) use frames
/// several times larger, so a frame count alone can run off the end of
/// the stack before it trips; checking the bytes left as well makes the
/// guard trip first in every build.
///
//===----------------------------------------------------------------------===//

#ifndef CPSFLOW_SUPPORT_STACKHEADROOM_H
#define CPSFLOW_SUPPORT_STACKHEADROOM_H

#include <pthread.h>

#include <cstddef>
#include <cstdint>

namespace cpsflow {
namespace support {

/// Whether the calling frame is within 256 KiB of the end of its
/// thread's (downward-growing) stack. The stack's low end is measured
/// once per thread; where the platform does not report it, never true.
inline bool stackNearlyExhausted() {
  constexpr uintptr_t Reserve = uintptr_t(256) << 10;
  thread_local const uintptr_t Low = [] {
    uintptr_t Addr = 0;
    pthread_attr_t Attr;
    if (pthread_getattr_np(pthread_self(), &Attr) == 0) {
      void *Base = nullptr;
      size_t Size = 0;
      if (pthread_attr_getstack(&Attr, &Base, &Size) == 0)
        Addr = reinterpret_cast<uintptr_t>(Base);
      pthread_attr_destroy(&Attr);
    }
    return Addr;
  }();
  uintptr_t Frame = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
  return Low != 0 && Frame < Low + Reserve;
}

} // namespace support
} // namespace cpsflow

#endif // CPSFLOW_SUPPORT_STACKHEADROOM_H
