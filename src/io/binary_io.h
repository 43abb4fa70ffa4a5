// Versioned binary snapshot I/O: little-endian Writer/Reader with
// per-section CRC32 checksums.
//
// A snapshot file is
//
//   [magic: 8 bytes] [format version: u32]
//   repeated sections, each
//     [section id: u32 fourcc] [payload size: u64] [payload] [crc32: u32]
//
// The Writer buffers one section at a time in memory and flushes it with
// its checksum on EndSection(); the Reader loads a whole section, verifies
// its checksum, then serves typed reads from the buffer. Primitive reads
// use soft-fail semantics (a failed read returns a zero value and latches
// an error into status()); callers check status() once per loaded object
// instead of after every field, mirroring Chromium's Pickle. All multi-byte
// values are little-endian regardless of host byte order, so snapshots are
// portable across machines.
//
// Zero-copy loads: Writer::AlignTo lets a format place fixed-width arrays
// at 8-byte-aligned FILE offsets (zero padding inside the section payload,
// mirrored by Reader::AlignTo). A Reader opened in ReadMode::kMapped mmaps
// the whole file; because mappings are page-aligned, file-offset alignment
// equals in-memory alignment, and ReadU64Span/ReadU32Span then return
// pointers straight into the mapping instead of copying — the loaded
// structure borrows the mapping (keep it alive via mapping()). When the map
// cannot be established (or D3L_DISABLE_MMAP is set), kMapped silently
// falls back to the buffered path and the span reads copy.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace d3l::io {

/// \brief CRC-32 (IEEE 802.3 polynomial, as in zlib) of a byte range.
uint32_t Crc32(const void* data, size_t len);

/// \brief Incremental CRC-32 over a stream of chunks; Finish() of all
/// chunks equals Crc32() of their concatenation. Lets callers checksum
/// arbitrarily large files through a bounded buffer.
class Crc32Accumulator {
 public:
  void Update(const void* data, size_t len);
  uint32_t Finish() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  uint32_t state_ = 0xFFFFFFFFu;
};

/// \brief A read-only memory mapping of a whole file (RAII: unmapped on
/// destruction). Loaded structures that borrow spans of the mapping hold
/// the shared_ptr so the pages outlive every borrower. Map() fails with
/// Unavailable when the environment variable D3L_DISABLE_MMAP is set to a
/// non-empty value — the hook the mmap-fallback tests use.
class MappedFile {
 public:
  static Result<std::shared_ptr<MappedFile>> Map(const std::string& path);

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const char* data() const { return static_cast<const char*>(data_); }
  size_t size() const { return size_; }

 private:
  MappedFile(void* data, size_t size) : data_(data), size_(size) {}
  void* data_ = nullptr;
  size_t size_ = 0;
};

/// \brief Raw shape of one section as found on disk.
struct SectionInfo {
  uint32_t id = 0;            ///< fourcc
  uint64_t payload_bytes = 0;
  uint64_t payload_offset = 0;  ///< file offset of the first payload byte
  bool crc_ok = false;
};

/// \brief Container-level view of any Writer-produced file: magic, format
/// version and the section table (no typed decoding).
struct FileInfo {
  std::string magic;    ///< the 8 magic bytes as written
  uint32_t version = 0;
  uint64_t file_bytes = 0;
  std::vector<SectionInfo> sections;
};

/// \brief Walks a snapshot/manifest container without decoding payloads:
/// reads the header, then each section's id, size, offset and checksum.
/// Works for ANY magic (the caller dispatches on FileInfo::magic), so
/// `d3l_snapshot info` can describe engine snapshots and shard manifests
/// alike. Fails on files too short for a header or with truncated sections.
Result<FileInfo> InspectFile(const std::string& path);

/// \brief Cheap content identity of a container file: (file size, CRC32
/// over the header and every section's id/size/STORED checksum), gathered
/// by seeking over the payloads — O(sections) reads regardless of file
/// size. The stored checksums are folded, not re-verified: callers that
/// load the file get full verification from the Reader anyway, so this is
/// an identity (cache invalidation, fingerprints), not an integrity check.
Result<std::pair<uint64_t, uint32_t>> FileIdentity(const std::string& path);

/// \brief Renders a fourcc section id as printable text (e.g. "OPTS").
std::string SectionName(uint32_t id);

/// \brief Builds a section id from four characters, e.g. SectionId("OPTS").
constexpr uint32_t SectionId(const char (&s)[5]) {
  return static_cast<uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

/// \brief How a Reader backs its section payloads.
enum class ReadMode {
  kBuffered,  ///< read sections into an owned buffer (always works)
  kMapped,    ///< mmap the file; falls back to kBuffered when mapping fails
};

/// \brief Streams sections of little-endian primitives to a file.
///
/// Writes are crash-safe: Open() streams into `path + ".tmp"` and Finish()
/// renames it over `path` (atomic on POSIX), so a crash or error mid-write
/// leaves any previous file at `path` untouched and readers never observe a
/// half-written snapshot or manifest. An abandoned Writer (destroyed
/// without a successful Finish) removes its temp file.
class Writer {
 public:
  Writer() = default;
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Starts an atomic write of `path`: creates/truncates `path + ".tmp"`
  /// and writes the magic + format version header. The target file is only
  /// replaced by Finish().
  Status Open(const std::string& path, const char (&magic)[9], uint32_t version);

  /// Opens the writer over an in-memory buffer instead of a file: sections
  /// are framed exactly as on disk (id, size, payload, crc32) and appended
  /// to `*out`, with no magic/version header. This is the canonical-bytes
  /// sink behind fingerprinting (core::OptionsFingerprint and the serving
  /// result-cache keys): anything with a Save(Writer&) method can be
  /// reduced to a deterministic byte string without touching disk. `out`
  /// must outlive the writer. For AlignTo, the buffer is treated as if it
  /// began right after a 12-byte container header, matching file mode.
  void OpenBuffer(std::string* out);

  /// Starts buffering a new section. A section must be ended before the
  /// next begins.
  void BeginSection(uint32_t id);

  /// Flushes the buffered section: header, payload, checksum.
  Status EndSection();

  /// Ends any open section, closes the temp file and renames it over the
  /// target path. Must be called to obtain the final write status (close
  /// and rename errors surface here); without it the target is untouched.
  Status Finish();

  // -- primitives (append to the current section buffer) --
  void WriteU8(uint8_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteDouble(double v);
  void WriteString(const std::string& s);
  void WriteU64Vector(const std::vector<uint64_t>& v);
  void WriteDoubleVector(const std::vector<double>& v);
  void WriteFloatVector(const std::vector<float>& v);

  /// Pads the current section with zero bytes until the next payload byte's
  /// FILE offset is a multiple of `alignment` (a power of two). Because
  /// mmap bases are page-aligned, a file-offset-aligned array is also
  /// memory-aligned inside a mapping — the precondition for serving it as
  /// an in-place uint64_t/uint32_t span. Reader::AlignTo skips the same pad.
  void AlignTo(size_t alignment);

  /// Appends `n` values verbatim as little-endian u64s, with no length
  /// prefix (the caller's format carries the count). Combined with
  /// AlignTo(8) this produces a mappable in-place array.
  void WriteRawU64Array(const uint64_t* values, size_t n);

  /// Appends `n` values verbatim as little-endian u32s (no length prefix).
  void WriteRawU32Array(const uint32_t* values, size_t n);

  /// Writes any forward range of std::string (vector, set) as count + items.
  template <typename Range>
  void WriteStringRange(const Range& r) {
    WriteU64(static_cast<uint64_t>(r.size()));
    for (const std::string& s : r) WriteString(s);
  }

 private:
  std::FILE* file_ = nullptr;
  std::string* buffer_ = nullptr;  ///< in-memory sink (OpenBuffer mode)
  std::string final_path_;         ///< rename destination (file mode)
  std::string tmp_path_;           ///< the file actually being written
  std::string section_;  ///< payload of the section being built
  uint32_t section_id_ = 0;
  uint64_t flushed_offset_ = 0;  ///< file offset just past everything flushed
  bool in_section_ = false;
  Status status_;
};

/// \brief Reads sections written by Writer, verifying checksums.
class Reader {
 public:
  Reader() = default;
  ~Reader();
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Opens `path` and validates the magic and format version. A magic
  /// mismatch yields InvalidArgument ("not a … file"); a version mismatch
  /// names both versions so callers can report upgrade paths.
  Status Open(const std::string& path, const char (&magic)[9], uint32_t version);

  /// Version-range form for formats with backward-compatible readers: the
  /// file's version must lie in [min_version, max_version]; the version
  /// actually found is stored into `*version_out` (may be null) so the
  /// caller can branch its field decoding on it. `mode` selects the
  /// payload backing;
  /// ReadMode::kMapped falls back to buffered reads when the file cannot
  /// be mapped (check mapped() to see which one you got).
  Status Open(const std::string& path, const char (&magic)[9], uint32_t min_version,
              uint32_t max_version, uint32_t* version_out,
              ReadMode mode = ReadMode::kBuffered);

  /// Opens the reader over in-memory bytes produced by Writer::OpenBuffer
  /// (framed sections, no magic/version header — the mirror of the writer's
  /// buffer mode). OpenSection and the typed reads then work exactly as in
  /// file mode, including checksum verification and the length-prefix
  /// guards, which is what lets the RPC layer parse network frames with
  /// the same hardened decoding path snapshots use.
  Status OpenBuffer(std::string data);

  /// Loads the next section, which must have id `id`, and verifies its
  /// checksum. Truncated payloads yield IOError; checksum mismatches
  /// IOError ("corrupt"); an unexpected id InvalidArgument.
  Status OpenSection(uint32_t id);

  /// Verifies the just-read section was fully consumed (a guard against
  /// format drift between Save and Load code paths).
  Status EndSection();

  /// True when section payloads live in an established memory mapping
  /// (ReadMode::kMapped that did not fall back): span reads can borrow.
  bool mapped() const { return mapping_ != nullptr; }

  /// The mapping backing this reader (null unless mapped()). Structures
  /// that borrow spans hold this to keep the pages alive.
  const std::shared_ptr<MappedFile>& mapping() const { return mapping_; }

  /// Total zero-pad bytes skipped by AlignTo so far (diagnostics).
  uint64_t pad_bytes() const { return pad_bytes_; }

  /// First error latched by any failed read (OutOfRange on exhausted
  /// section payloads), or OK.
  const Status& status() const { return status_; }

  /// Latches an IOError into status(); Load() implementations use this
  /// when decoded values violate structural invariants (e.g. an impossible
  /// key shape) even though the bytes themselves were readable.
  void MarkCorrupt(std::string what) {
    Fail(Status::IOError("corrupt file: " + std::move(what)));
  }

  // -- primitives (soft-fail: return 0/empty and latch status on error) --
  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  int32_t ReadI32() { return static_cast<int32_t>(ReadU32()); }
  bool ReadBool() { return ReadU8() != 0; }
  double ReadDouble();
  std::string ReadString();
  std::vector<uint64_t> ReadU64Vector();
  std::vector<double> ReadDoubleVector();
  std::vector<float> ReadFloatVector();

  /// Reads a count written by WriteU64 that prefixes `elem_size`-byte
  /// elements, validating it against the bytes remaining in the section so
  /// corrupt counts cannot trigger huge allocations.
  size_t ReadLength(size_t elem_size);

  /// Skips the zero padding Writer::AlignTo produced for the same
  /// alignment. Must mirror the writer call for call: the two sides agree
  /// on the pad length because they agree on the absolute payload offset.
  void AlignTo(size_t alignment);

  /// Reads `n` u64 values written by WriteRawU64Array. When the payload is
  /// mapped, the host is little-endian and the in-file array is 8-byte
  /// aligned (the writer's AlignTo guarantees it), returns a pointer
  /// straight into the mapping and leaves `*owned` empty — the caller must
  /// keep mapping() alive for the lifetime of the span. Otherwise decodes
  /// into `*owned` and returns owned->data(). Returns nullptr (with
  /// status() latched) on a short section.
  const uint64_t* ReadU64Span(size_t n, std::vector<uint64_t>* owned);

  /// ReadU64Span's u32 counterpart (4-byte alignment).
  const uint32_t* ReadU32Span(size_t n, std::vector<uint32_t>* owned);

 private:
  bool TakeBytes(void* out, size_t n);
  void Fail(Status s);
  /// Reads `n` bytes of the framing stream (file, buffer or mapping) into
  /// `out`; false at end of stream or on a short read.
  bool ReadFrame(void* out, size_t n);
  /// Borrows `n` bytes of the current section payload (bounds-checked
  /// cursor advance) without copying; nullptr + latched status on overrun.
  const char* TakeView(size_t n);
  /// ReadU64Span/ReadU32Span for element type T.
  template <typename T>
  const T* ReadSpan(size_t n, std::vector<T>* owned);
  /// A length-prefixed array of T, decoded in one pass.
  template <typename T>
  std::vector<T> ReadVector();

  std::FILE* file_ = nullptr;
  uint64_t file_size_ = 0;  ///< size of file_ at Open (file mode)
  std::string input_;       ///< framing bytes (OpenBuffer mode)
  std::shared_ptr<MappedFile> mapping_;  ///< framing bytes (mapped mode)
  const char* frame_data_ = nullptr;  ///< in-memory framing (buffer/mapped)
  size_t frame_size_ = 0;
  size_t frame_cursor_ = 0;
  bool buffer_mode_ = false;
  std::string section_;  ///< owned payload (file mode)
  const char* sec_data_ = nullptr;  ///< current section payload view
  size_t sec_size_ = 0;
  size_t cursor_ = 0;
  uint64_t payload_offset_ = 0;  ///< file offset of the current payload
  uint64_t stream_offset_ = 0;   ///< file offset just past consumed frames
  uint64_t pad_bytes_ = 0;
  Status status_;
};

}  // namespace d3l::io
