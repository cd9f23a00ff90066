#ifndef RSSE_COMMON_MAPPED_FILE_H_
#define RSSE_COMMON_MAPPED_FILE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace rsse {

/// A read-only, shared memory mapping of a whole file. The mapping stays
/// valid for the object's lifetime, so consumers that hand out spans into
/// it (FlatLabelMap views, ShardedEmm::OpenMapped) hold it by
/// shared_ptr. Because the mapping pins the inode, the snapshot
/// atomic-rename dance is safe against live readers: a replacement file
/// renamed over this one leaves the mapped bytes untouched.
class MappedFile {
 public:
  /// Maps `path` read-only (PROT_READ, MAP_SHARED). An empty file maps to
  /// an empty span. Fails with NOT_FOUND / INTERNAL on open/stat/mmap
  /// errors.
  static Result<std::shared_ptr<const MappedFile>> Open(
      const std::string& path);

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  ConstByteSpan bytes() const {
    return ConstByteSpan(static_cast<const uint8_t*>(data_), size_);
  }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Advises the kernel that [offset, offset+length) will be probed at
  /// random (MADV_RANDOM): no readahead, page-cache holds only what the
  /// workload touches. Best-effort; errors are ignored.
  void AdviseRandom(size_t offset, size_t length) const;

 private:
  MappedFile(std::string path, void* data, size_t size)
      : path_(std::move(path)), data_(data), size_(size) {}

  std::string path_;
  void* data_ = nullptr;
  size_t size_ = 0;
};

/// Reads exactly [offset, offset+length) of `path` with pread. Used by
/// recovery paths that need a byte range without mapping (the snapshot
/// header page and gate, a filter tree's index).
Result<Bytes> ReadFileRange(const std::string& path, uint64_t offset,
                            uint64_t length);

}  // namespace rsse

#endif  // RSSE_COMMON_MAPPED_FILE_H_
