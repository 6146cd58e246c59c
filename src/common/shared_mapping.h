// An owned anonymous MAP_SHARED mapping: zero-filled, page-aligned, and
// shared with every process forked after it is made. The control plane
// (the ownership directory, each service's counters) and the native
// backends' per-core event logs live in such mappings; inside one process
// it is ordinary memory, so every backend uses the same objects unchanged.
#ifndef TM2C_SRC_COMMON_SHARED_MAPPING_H_
#define TM2C_SRC_COMMON_SHARED_MAPPING_H_

#include <sys/mman.h>

#include <cstddef>

#include "src/common/check.h"

namespace tm2c {

class SharedMapping {
 public:
  explicit SharedMapping(size_t bytes)
      : bytes_(bytes),
        data_(::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0)) {
    TM2C_CHECK_MSG(data_ != MAP_FAILED, "shared mapping: mmap failed");
  }
  ~SharedMapping() { ::munmap(data_, bytes_); }

  SharedMapping(const SharedMapping&) = delete;
  SharedMapping& operator=(const SharedMapping&) = delete;

  void* data() const { return data_; }

 private:
  size_t bytes_;
  void* data_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_COMMON_SHARED_MAPPING_H_
