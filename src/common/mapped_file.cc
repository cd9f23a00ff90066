#include "common/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace rsse {

namespace {

constexpr size_t kPageBytes = 4096;

// Clamps [offset, offset+length) to the mapping and widens it to page
// boundaries, as madvise requires a page-aligned start.
bool PageRange(size_t map_size, size_t offset, size_t length, size_t& start,
               size_t& span) {
  if (offset >= map_size || length == 0) return false;
  const size_t end = offset + std::min(length, map_size - offset);
  start = offset - (offset % kPageBytes);
  span = end - start;
  return true;
}

}  // namespace

Result<std::shared_ptr<const MappedFile>> MappedFile::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("mmap open " + path + ": " +
                            std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal("mmap fstat " + path + ": " +
                            std::strerror(err));
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* data = nullptr;
  if (size > 0) {
    data = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    if (data == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      return Status::Internal("mmap " + path + ": " + std::strerror(err));
    }
  }
  // The mapping holds its own reference to the inode; the descriptor is
  // only needed to create it.
  ::close(fd);
  return std::shared_ptr<const MappedFile>(
      new MappedFile(path, data, size));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr && size_ > 0) ::munmap(data_, size_);
}

void MappedFile::AdviseRandom(size_t offset, size_t length) const {
  size_t start = 0;
  size_t span = 0;
  if (!PageRange(size_, offset, length, start, span)) return;
  ::madvise(static_cast<uint8_t*>(data_) + start, span, MADV_RANDOM);
}

Result<Bytes> ReadFileRange(const std::string& path, uint64_t offset,
                            uint64_t length) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("open " + path + ": " + std::strerror(errno));
  }
  Bytes out(length);
  size_t done = 0;
  while (done < length) {
    const ssize_t n =
        ::pread(fd, out.data() + done, length - done,
                static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status::Internal("pread " + path + ": " + std::strerror(err));
    }
    if (n == 0) {
      ::close(fd);
      return Status::InvalidArgument("pread " + path +
                                     ": unexpected end of file");
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  return out;
}

}  // namespace rsse
