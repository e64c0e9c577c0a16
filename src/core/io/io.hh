// szp::io — the one file layer: every file szplus reads or writes, and the
// byte-source / byte-sink seam under out-of-core streaming.
//
// The slab pipeline (core/streaming.*) never touches files directly: it
// reads its input through a FieldSource (positional, thread-safe reads so
// concurrent slab workers can ingest disjoint ranges) and emits its output
// through a ContainerSink (strictly sequential appends, driven by the
// in-order packer role).  Three source implementations cover the memory
// spectrum:
//
//   * SpanFieldSource — an in-memory field; view() exposes it zero-copy, so
//     the classic compress(span) entry points lose nothing by routing
//     through the seam.
//   * FileFieldSource — a plain file read with pread(2) into caller-owned
//     buffers; the only implementation whose resident cost is exactly the
//     buffers the pipeline chooses to hold, so it is what the memory-budget
//     tests meter.
//   * MmapFieldSource — the file mapped read-only; view() exposes the
//     mapping, giving zero-copy slab spans while the kernel's page cache
//     handles residency (the huawei-competition repo's ingest idiom).
//
// Sinks mirror the split: VectorSink retains the container in memory (the
// classic API), FileSink appends to disk so finished slabs leave RAM as
// soon as they are packed.  Whole-file callers (the CLI, the fuzz corpus,
// raw SDRBench fields) use read_file()/write_file(), which are one
// FileFieldSource read and one FileSink write.  Sources and sinks throw
// std::runtime_error on I/O failure, naming the path; the pipeline's
// ordered-drain engine turns a mid-slab fault into the deterministic
// lowest-index error, same as a compute fault.
//
// The layer is POSIX (pread, mmap); no other file in src/ or tools/ opens a
// file stream (tools/lint.sh enforces it).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace szp::io {

/// Random-access byte source (a raw field being compressed, or a container
/// being decompressed).  read_at() must be safe to call from concurrent
/// threads on disjoint or overlapping ranges.
class FieldSource {
 public:
  FieldSource() = default;
  FieldSource(const FieldSource&) = delete;
  FieldSource& operator=(const FieldSource&) = delete;
  virtual ~FieldSource() = default;

  [[nodiscard]] virtual std::size_t size_bytes() const = 0;

  /// Fill `out` from byte offset `offset`.  Throws std::runtime_error on a
  /// short read, a range past the end, or an I/O failure.
  virtual void read_at(std::size_t offset, std::span<std::uint8_t> out) const = 0;

  /// Optional zero-copy view of the whole source (in-memory spans, mmap).
  /// Empty when the source cannot expose one; callers must then read_at()
  /// into their own buffers.
  [[nodiscard]] virtual std::span<const std::uint8_t> view() const { return {}; }

  /// Human-readable origin for error messages ("<memory>", a file path).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Sequential byte sink (a container being packed, or a raw field being
/// written back out).  write() is only ever called by one thread at a time
/// — the pipeline's in-order packer role serializes it by construction.
class ContainerSink {
 public:
  ContainerSink() = default;
  ContainerSink(const ContainerSink&) = delete;
  ContainerSink& operator=(const ContainerSink&) = delete;
  virtual ~ContainerSink() = default;

  /// Append bytes.  Throws std::runtime_error on failure.
  virtual void write(std::span<const std::uint8_t> bytes) = 0;

  /// Capacity hint: roughly `more` further bytes are expected.  Retaining
  /// sinks may pre-reserve; streaming sinks ignore it.
  virtual void reserve_hint(std::size_t more) { (void)more; }

  /// Bytes accepted so far.
  [[nodiscard]] virtual std::size_t bytes_written() const = 0;

  /// Whether written bytes stay resident in host memory (true for the
  /// in-memory sink).  The streaming pipeline charges retained bytes
  /// against its residency meter; streamed-to-disk bytes cost nothing.
  [[nodiscard]] virtual bool retains_bytes() const { return false; }

  /// Flush and surface any deferred write error.  Called once by the
  /// pipeline after the final slab is packed.
  virtual void finish() {}

  [[nodiscard]] virtual std::string name() const = 0;
};

/// In-memory source over caller-owned bytes (kept alive by the caller).
class SpanFieldSource final : public FieldSource {
 public:
  explicit SpanFieldSource(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t size_bytes() const override { return bytes_.size(); }
  void read_at(std::size_t offset, std::span<std::uint8_t> out) const override;
  [[nodiscard]] std::span<const std::uint8_t> view() const override { return bytes_; }
  [[nodiscard]] std::string name() const override { return "<memory>"; }

 private:
  std::span<const std::uint8_t> bytes_;
};

/// Plain-file source with positional pread(2) reads.  No view: every byte
/// the pipeline holds is a buffer the pipeline chose to allocate.
class FileFieldSource final : public FieldSource {
 public:
  explicit FileFieldSource(const std::filesystem::path& path);
  ~FileFieldSource() override;

  [[nodiscard]] std::size_t size_bytes() const override { return size_; }
  void read_at(std::size_t offset, std::span<std::uint8_t> out) const override;
  [[nodiscard]] std::string name() const override { return path_; }

 private:
  std::string path_;
  std::size_t size_ = 0;
  int fd_ = -1;
};

/// Read-only mmap of a whole non-empty file; view() exposes the mapping.
/// Falling back is the caller's job: open_field_source() prefers mmap and
/// degrades to FileFieldSource when a mapping fails (a filesystem may
/// refuse one).
class MmapFieldSource final : public FieldSource {
 public:
  explicit MmapFieldSource(const std::filesystem::path& path);
  ~MmapFieldSource() override;

  [[nodiscard]] std::size_t size_bytes() const override { return size_; }
  void read_at(std::size_t offset, std::span<std::uint8_t> out) const override;
  [[nodiscard]] std::span<const std::uint8_t> view() const override {
    return {static_cast<const std::uint8_t*>(map_), size_};
  }
  [[nodiscard]] std::string name() const override { return path_; }

 private:
  std::string path_;
  std::size_t size_ = 0;
  void* map_ = nullptr;
};

/// How open_field_source() should back a file.
enum class SourceMode {
  kAuto,  ///< mmap when the file is non-empty and maps, else pread
  kRead,  ///< positional reads only (bounded-residency ingest)
};

/// Open a file as a FieldSource.  Throws std::runtime_error when the file
/// cannot be opened.
[[nodiscard]] std::unique_ptr<FieldSource> open_field_source(
    const std::filesystem::path& path, SourceMode mode = SourceMode::kAuto);

/// In-memory sink: the classic API's container buffer.
class VectorSink final : public ContainerSink {
 public:
  void write(std::span<const std::uint8_t> bytes) override {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }
  void reserve_hint(std::size_t more) override { buf_.reserve(buf_.size() + more); }
  [[nodiscard]] std::size_t bytes_written() const override { return buf_.size(); }
  [[nodiscard]] bool retains_bytes() const override { return true; }
  [[nodiscard]] std::string name() const override { return "<memory>"; }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Streaming file sink: packed bytes leave host memory immediately.  The
/// bytes go to a temporary file beside the output, which finish() renames
/// over it; a sink destroyed before finish() removes the temporary.  So a
/// run that fails leaves the output path as it was: an existing file keeps
/// its bytes and a fresh path gets no file.  An output that exists and is
/// not a regular file (/dev/null, a FIFO) is written in place.
class FileSink final : public ContainerSink {
 public:
  explicit FileSink(const std::filesystem::path& path);
  ~FileSink() override;

  void write(std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] std::size_t bytes_written() const override { return written_; }
  void finish() override;
  [[nodiscard]] std::string name() const override { return path_; }

 private:
  std::string path_;    ///< the output as named, for messages
  std::string target_;  ///< the file finish() replaces (symlinks resolved)
  std::string temp_;    ///< the file being written; empty when in place
  int fd_ = -1;
  std::size_t written_ = 0;
};

/// A whole file, read through FileFieldSource.  Throws std::runtime_error
/// naming the path when it cannot be opened or read.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::filesystem::path& path);

/// Write `bytes` to `path` through FileSink, replacing any file there.
/// Throws std::runtime_error naming the path when it cannot be opened or
/// written, and then leaves the path as it was.
void write_file(const std::filesystem::path& path, std::span<const std::uint8_t> bytes);

}  // namespace szp::io
