#include "core/io/io.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

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

FileSink::FileSink(const std::filesystem::path& path)
    : path_(path.string()), out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) fail("cannot open output file", path_);
}

void FileSink::write(std::span<const std::uint8_t> bytes) {
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!out_) fail("write failed", path_);
  written_ += bytes.size();
}

void FileSink::finish() {
  out_.flush();
  if (!out_) fail("flush failed", path_);
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
