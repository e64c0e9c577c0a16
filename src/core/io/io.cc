#include "core/io/io.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

namespace szp::io {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& name) {
  throw std::runtime_error(what + ": " + name);
}

[[noreturn]] void fail_errno(const std::string& what, const std::string& name) {
  throw std::runtime_error(what + ": " + name + ": " + std::strerror(errno));
}

}  // namespace

void SpanFieldSource::read_at(std::size_t offset, std::span<std::uint8_t> out) const {
  if (offset > bytes_.size() || out.size() > bytes_.size() - offset) {
    fail("read past end of source", name());
  }
  if (out.empty()) return;  // an empty source may have no storage to copy from
  std::memcpy(out.data(), bytes_.data() + offset, out.size());
}

FileFieldSource::FileFieldSource(const std::filesystem::path& path) : path_(path.string()) {
  std::error_code ec;
  const auto sz = std::filesystem::file_size(path, ec);
  if (ec) fail("cannot stat file", path_);
  size_ = static_cast<std::size_t>(sz);
  fd_ = ::open(path_.c_str(), O_RDONLY);
  if (fd_ < 0) fail_errno("cannot open file", path_);
}

FileFieldSource::~FileFieldSource() {
  if (fd_ >= 0) ::close(fd_);
}

void FileFieldSource::read_at(std::size_t offset, std::span<std::uint8_t> out) const {
  if (offset > size_ || out.size() > size_ - offset) {
    fail("read past end of file", name());
  }
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + got, out.size() - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("read failed", name());
    }
    if (n == 0) fail("short read (file truncated underneath us?)", name());
    got += static_cast<std::size_t>(n);
  }
}

MmapFieldSource::MmapFieldSource(const std::filesystem::path& path) : path_(path.string()) {
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) fail_errno("cannot open file", path_);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail_errno("cannot stat file", path_);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {
    // mmap of length 0 is unspecified; an empty mapping serves no reads.
    ::close(fd);
    fail("cannot mmap an empty file", path_);
  }
  map_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    fail_errno("mmap failed", path_);
  }
}

MmapFieldSource::~MmapFieldSource() {
  if (map_ != nullptr) ::munmap(map_, size_);
}

void MmapFieldSource::read_at(std::size_t offset, std::span<std::uint8_t> out) const {
  if (offset > size_ || out.size() > size_ - offset) {
    fail("read past end of mapping", name());
  }
  std::memcpy(out.data(), static_cast<const std::uint8_t*>(map_) + offset, out.size());
}

std::unique_ptr<FieldSource> open_field_source(const std::filesystem::path& path,
                                               SourceMode mode) {
  if (mode == SourceMode::kAuto) {
    std::error_code ec;
    const auto sz = std::filesystem::file_size(path, ec);
    if (!ec && sz > 0) {
      try {
        return std::make_unique<MmapFieldSource>(path);
      } catch (const std::runtime_error&) {
        // e.g. a filesystem that refuses mappings — degrade to reads
      }
    }
  }
  return std::make_unique<FileFieldSource>(path);
}

FileSink::FileSink(const std::filesystem::path& path) : path_(path.string()), target_(path_) {
  struct stat st{};
  const bool exists = ::stat(path_.c_str(), &st) == 0;
  if (exists && !S_ISREG(st.st_mode)) {
    // A device or a FIFO has no bytes to keep and cannot be renamed over.
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd_ < 0) fail("cannot open output file", path_);
    return;
  }
  if (exists) {
    std::error_code ec;
    const auto resolved = std::filesystem::canonical(path, ec);
    if (!ec) target_ = resolved.string();
  }
  // A sibling, so the rename stays within one filesystem; O_EXCL and a
  // per-process counter keep concurrent sinks on distinct names.
  static std::atomic<unsigned> serial{0};
  const std::filesystem::path target(target_);
  std::string name(".");
  name += target.filename().string();
  name += ".tmp.";
  name += std::to_string(::getpid());
  name += '.';
  const std::string prefix = (target.parent_path() / name).string();
  for (;;) {
    temp_ = prefix;
    temp_ += std::to_string(serial.fetch_add(1));
    fd_ = ::open(temp_.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd_ >= 0) break;
    if (errno != EEXIST) {
      temp_.clear();
      fail("cannot open output file", path_);
    }
  }
  if (exists) (void)::fchmod(fd_, st.st_mode & 07777);
}

FileSink::~FileSink() {
  if (fd_ >= 0) ::close(fd_);
  if (!temp_.empty()) ::unlink(temp_.c_str());
}

void FileSink::write(std::span<const std::uint8_t> bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("write failed", path_);
    }
    done += static_cast<std::size_t>(n);
  }
  written_ += bytes.size();
}

void FileSink::finish() {
  if (fd_ < 0) return;
  const int fd = std::exchange(fd_, -1);
  if (::close(fd) != 0) fail_errno("write failed", path_);
  if (temp_.empty()) return;
  if (::rename(temp_.c_str(), target_.c_str()) != 0) {
    fail_errno("cannot replace output file", path_);  // the destructor removes temp_
  }
  temp_.clear();
}

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  const FileFieldSource src(path);
  std::vector<std::uint8_t> bytes(src.size_bytes());
  src.read_at(0, bytes);
  return bytes;
}

void write_file(const std::filesystem::path& path, std::span<const std::uint8_t> bytes) {
  FileSink sink(path);
  sink.write(bytes);
  sink.finish();
}

}  // namespace szp::io
