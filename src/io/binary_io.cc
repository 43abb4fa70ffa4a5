#include "io/binary_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

namespace d3l::io {

namespace {

/// Lazily built table for the reflected CRC-32 (polynomial 0xEDB88320).
const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

void AppendLittleEndian(std::string* out, uint64_t v, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

Status WriteAll(std::FILE* f, const void* data, size_t len, const char* what) {
  if (len > 0 && std::fwrite(data, 1, len, f) != len) {
    return Status::IOError(std::string("short write of ") + what);
  }
  return Status::OK();
}

constexpr bool kHostLittleEndian = std::endian::native == std::endian::little;

}  // namespace

void Crc32Accumulator::Update(const void* data, size_t len) {
  const uint32_t* table = Crc32Table();
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    state_ = table[(state_ ^ p[i]) & 0xff] ^ (state_ >> 8);
  }
}

uint32_t Crc32(const void* data, size_t len) {
  Crc32Accumulator acc;
  acc.Update(data, len);
  return acc.Finish();
}

// ------------------------------------------------------------ MappedFile

Result<std::shared_ptr<MappedFile>> MappedFile::Map(const std::string& path) {
  // Test/ops hook: force the buffered fallback without touching the caller.
  const char* disabled = std::getenv("D3L_DISABLE_MMAP");
  if (disabled != nullptr && disabled[0] != '\0') {
    return Status::Unavailable("mmap disabled by D3L_DISABLE_MMAP");
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* data = nullptr;
  if (size > 0) {
    data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (data == MAP_FAILED) {
      ::close(fd);
      return Status::Unavailable("cannot mmap " + path);
    }
  }
  ::close(fd);  // the mapping keeps the pages; the fd is not needed
  return std::shared_ptr<MappedFile>(new MappedFile(data, size));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

// ------------------------------------------------------------ inspection

Result<FileInfo> InspectFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  // Ownership: closed on every return path below.
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  FileInfo info;
  char magic[8];
  if (std::fread(magic, 1, 8, f) != 8) {
    return Status::IOError(path + ": too short for a container header");
  }
  info.magic.assign(magic, 8);
  unsigned char vb[4];
  if (std::fread(vb, 1, 4, f) != 4) {
    return Status::IOError(path + ": truncated header");
  }
  info.version = static_cast<uint32_t>(vb[0]) | static_cast<uint32_t>(vb[1]) << 8 |
                 static_cast<uint32_t>(vb[2]) << 16 | static_cast<uint32_t>(vb[3]) << 24;
  info.file_bytes = 12;

  for (;;) {
    unsigned char header[12];
    size_t got = std::fread(header, 1, sizeof(header), f);
    if (got == 0) break;  // clean end of file
    if (got != sizeof(header)) {
      return Status::IOError(path + ": truncated section header");
    }
    SectionInfo section;
    section.id = static_cast<uint32_t>(header[0]) | static_cast<uint32_t>(header[1]) << 8 |
                 static_cast<uint32_t>(header[2]) << 16 |
                 static_cast<uint32_t>(header[3]) << 24;
    for (size_t i = 0; i < 8; ++i) {
      section.payload_bytes |= static_cast<uint64_t>(header[4 + i]) << (8 * i);
    }
    section.payload_offset = info.file_bytes + 12;
    // Stream the payload through the CRC in bounded chunks so inspection
    // never allocates proportionally to section size.
    Crc32Accumulator acc;
    uint64_t remaining = section.payload_bytes;
    unsigned char buf[1 << 16];
    while (remaining > 0) {
      size_t want = remaining < sizeof(buf) ? static_cast<size_t>(remaining) : sizeof(buf);
      if (std::fread(buf, 1, want, f) != want) {
        return Status::IOError(path + ": section payload cut short");
      }
      acc.Update(buf, want);
      remaining -= want;
    }
    const uint32_t crc = acc.Finish();
    unsigned char cb[4];
    if (std::fread(cb, 1, 4, f) != 4) {
      return Status::IOError(path + ": missing section checksum");
    }
    uint32_t file_crc = static_cast<uint32_t>(cb[0]) | static_cast<uint32_t>(cb[1]) << 8 |
                        static_cast<uint32_t>(cb[2]) << 16 |
                        static_cast<uint32_t>(cb[3]) << 24;
    section.crc_ok = (file_crc == crc);
    info.file_bytes += 12 + section.payload_bytes + 4;
    info.sections.push_back(section);
  }
  return info;
}

Result<std::pair<uint64_t, uint32_t>> FileIdentity(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  // File size up front: payload lengths are untrusted, so every skip below
  // is validated against the bytes actually remaining (a corrupt length
  // must yield a clean Status, never a backwards or past-end seek).
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return Status::IOError(path + ": cannot seek");
  }
  const long end = std::ftell(f);
  if (end < 0) return Status::IOError(path + ": cannot seek");
  const uint64_t file_size = static_cast<uint64_t>(end);
  std::rewind(f);

  Crc32Accumulator digest;
  unsigned char header[12];
  if (std::fread(header, 1, sizeof(header), f) != sizeof(header)) {
    return Status::IOError(path + ": too short for a container header");
  }
  digest.Update(header, sizeof(header));
  uint64_t pos = 12;

  for (;;) {
    size_t got = std::fread(header, 1, sizeof(header), f);
    if (got == 0) break;  // clean end of file
    if (got != sizeof(header)) {
      return Status::IOError(path + ": truncated section header");
    }
    digest.Update(header, sizeof(header));
    pos += sizeof(header);
    uint64_t payload = 0;
    for (size_t i = 0; i < 8; ++i) {
      payload |= static_cast<uint64_t>(header[4 + i]) << (8 * i);
    }
    if (payload > file_size - pos || file_size - pos - payload < 4) {
      return Status::IOError(path + ": section payload cut short");
    }
    // Skip the payload in bounded forward steps (portable even where long
    // is 32-bit, and immune to a sign flip from a huge decoded length).
    for (uint64_t remaining = payload; remaining > 0;) {
      const long step =
          static_cast<long>(std::min<uint64_t>(remaining, 1u << 30));
      if (std::fseek(f, step, SEEK_CUR) != 0) {
        return Status::IOError(path + ": section payload cut short");
      }
      remaining -= static_cast<uint64_t>(step);
    }
    pos += payload;
    unsigned char crc[4];
    if (std::fread(crc, 1, 4, f) != 4) {
      return Status::IOError(path + ": missing section checksum");
    }
    digest.Update(crc, 4);
    pos += 4;
  }
  return std::make_pair(pos, digest.Finish());
}

std::string SectionName(uint32_t id) {
  std::string name;
  for (int shift = 0; shift < 32; shift += 8) {
    char c = static_cast<char>((id >> shift) & 0xff);
    name.push_back((c >= 0x20 && c < 0x7f) ? c : '?');
  }
  return name;
}

// ---------------------------------------------------------------- Writer

Writer::~Writer() {
  if (file_ != nullptr) {
    // Abandoned write (error path, or the caller never reached Finish):
    // drop the temp file so the target keeps its previous contents and no
    // half-written ".tmp" litters the directory.
    std::fclose(file_);
    std::error_code ec;
    std::filesystem::remove(tmp_path_, ec);
  }
}

Status Writer::Open(const std::string& path, const char (&magic)[9], uint32_t version) {
  if (file_ != nullptr || buffer_ != nullptr) {
    return Status::InvalidArgument("Writer already open");
  }
  final_path_ = path;
  tmp_path_ = path + ".tmp";
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::IOError("cannot create " + tmp_path_);
  }
  D3L_RETURN_NOT_OK(WriteAll(file_, magic, 8, "magic"));
  std::string header;
  AppendLittleEndian(&header, version, 4);
  flushed_offset_ = 12;
  return WriteAll(file_, header.data(), header.size(), "version");
}

void Writer::OpenBuffer(std::string* out) {
  // Precondition, not a recoverable state: a double open is a programming
  // error, latched so it surfaces at Finish() like other Writer misuse.
  if ((file_ != nullptr || buffer_ != nullptr) && status_.ok()) {
    status_ = Status::Internal("Writer already open");
    return;
  }
  buffer_ = out;
  // Buffer framing carries no magic/version header, but AlignTo still
  // behaves as if one existed so buffer-written sections are byte-identical
  // to their file-written counterparts.
  flushed_offset_ = 12 + out->size();
}

void Writer::BeginSection(uint32_t id) {
  // A Begin without End is a programming error; latch it rather than abort
  // so the caller sees it at Finish().
  if (in_section_ && status_.ok()) {
    status_ = Status::Internal("BeginSection inside an open section");
  }
  in_section_ = true;
  section_id_ = id;
  section_.clear();
}

Status Writer::EndSection() {
  if (!status_.ok()) return status_;
  if (!in_section_) return Status::Internal("EndSection without BeginSection");
  if (file_ == nullptr && buffer_ == nullptr) return Status::Internal("Writer not open");
  std::string header;
  AppendLittleEndian(&header, section_id_, 4);
  AppendLittleEndian(&header, section_.size(), 8);
  std::string crc;
  AppendLittleEndian(&crc, Crc32(section_.data(), section_.size()), 4);
  if (buffer_ != nullptr) {
    buffer_->append(header);
    buffer_->append(section_);
    buffer_->append(crc);
  } else {
    D3L_RETURN_NOT_OK(WriteAll(file_, header.data(), header.size(), "section header"));
    D3L_RETURN_NOT_OK(
        WriteAll(file_, section_.data(), section_.size(), "section payload"));
    D3L_RETURN_NOT_OK(WriteAll(file_, crc.data(), crc.size(), "section checksum"));
  }
  flushed_offset_ += 12 + section_.size() + 4;
  in_section_ = false;
  section_.clear();
  return Status::OK();
}

Status Writer::Finish() {
  if (in_section_) D3L_RETURN_NOT_OK(EndSection());
  D3L_RETURN_NOT_OK(status_);
  if (buffer_ != nullptr) {
    buffer_ = nullptr;
    return Status::OK();
  }
  if (file_ == nullptr) return Status::Internal("Writer not open");
  // The temp file's data must be durable BEFORE the rename is: journaling
  // filesystems may commit the rename ahead of the data blocks, and a
  // power cut in that window would publish a truncated file over the
  // previously good one — exactly what this protocol exists to prevent.
  const bool synced = std::fflush(file_) == 0 && ::fsync(::fileno(file_)) == 0;
  int rc = std::fclose(file_);
  file_ = nullptr;
  if (!synced || rc != 0) {
    std::error_code ec;
    std::filesystem::remove(tmp_path_, ec);
    return Status::IOError("cannot sync/close " + tmp_path_);
  }
  // Atomic publish: the complete temp file replaces the target in one
  // rename, so a concurrent or post-crash reader sees either the old file
  // or the new one — never a truncated in-between.
  std::error_code ec;
  std::filesystem::rename(tmp_path_, final_path_, ec);
  if (ec) {
    std::filesystem::remove(tmp_path_, ec);
    return Status::IOError("cannot rename " + tmp_path_ + " to " + final_path_);
  }
  // Make the rename itself durable: the directory entry lives in the
  // parent directory's data.
  const std::string dir = std::filesystem::path(final_path_).parent_path().string();
  const int dir_fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);  // best effort: some filesystems refuse directory fsync
    ::close(dir_fd);
  }
  return Status::OK();
}

void Writer::WriteU8(uint8_t v) { section_.push_back(static_cast<char>(v)); }
void Writer::WriteU32(uint32_t v) { AppendLittleEndian(&section_, v, 4); }
void Writer::WriteU64(uint64_t v) { AppendLittleEndian(&section_, v, 8); }
void Writer::WriteDouble(double v) { WriteU64(std::bit_cast<uint64_t>(v)); }

void Writer::WriteString(const std::string& s) {
  WriteU64(s.size());
  section_.append(s);
}

void Writer::WriteU64Vector(const std::vector<uint64_t>& v) {
  WriteU64(v.size());
  for (uint64_t x : v) WriteU64(x);
}

void Writer::WriteDoubleVector(const std::vector<double>& v) {
  WriteU64(v.size());
  for (double x : v) WriteDouble(x);
}

void Writer::WriteFloatVector(const std::vector<float>& v) {
  WriteU64(v.size());
  for (float x : v) WriteU32(std::bit_cast<uint32_t>(x));
}

void Writer::AlignTo(size_t alignment) {
  if (alignment == 0) return;
  // The next payload byte's file offset: everything flushed, plus this
  // section's 12-byte header, plus the payload built so far.
  const uint64_t offset = flushed_offset_ + 12 + section_.size();
  const uint64_t pad = (alignment - offset % alignment) % alignment;
  section_.append(static_cast<size_t>(pad), '\0');
}

void Writer::WriteRawU64Array(const uint64_t* values, size_t n) {
  if (n == 0) return;
  if constexpr (kHostLittleEndian) {
    section_.append(reinterpret_cast<const char*>(values), n * sizeof(uint64_t));
  } else {
    for (size_t i = 0; i < n; ++i) AppendLittleEndian(&section_, values[i], 8);
  }
}

void Writer::WriteRawU32Array(const uint32_t* values, size_t n) {
  if (n == 0) return;
  if constexpr (kHostLittleEndian) {
    section_.append(reinterpret_cast<const char*>(values), n * sizeof(uint32_t));
  } else {
    for (size_t i = 0; i < n; ++i) AppendLittleEndian(&section_, values[i], 4);
  }
}

// ---------------------------------------------------------------- Reader

Reader::~Reader() {
  if (file_ != nullptr) std::fclose(file_);
}

Status Reader::Open(const std::string& path, const char (&magic)[9], uint32_t version) {
  uint32_t found = 0;
  return Open(path, magic, version, version, &found);
}

Status Reader::OpenBuffer(std::string data) {
  if (file_ != nullptr || buffer_mode_ || mapping_ != nullptr) {
    return Status::InvalidArgument("Reader already open");
  }
  buffer_mode_ = true;
  input_ = std::move(data);
  frame_data_ = input_.data();
  frame_size_ = input_.size();
  frame_cursor_ = 0;
  // Mirror Writer::OpenBuffer: alignment pretends a 12-byte header exists.
  stream_offset_ = 12;
  return Status::OK();
}

Status Reader::Open(const std::string& path, const char (&magic)[9], uint32_t min_version,
                    uint32_t max_version, uint32_t* version_out, ReadMode mode) {
  if (file_ != nullptr || buffer_mode_ || mapping_ != nullptr) {
    return Status::InvalidArgument("Reader already open");
  }
  if (mode == ReadMode::kMapped) {
    auto mapped = MappedFile::Map(path);
    if (mapped.ok()) {
      mapping_ = std::move(mapped).ValueOrDie();
      frame_data_ = mapping_->data();
      frame_size_ = mapping_->size();
      frame_cursor_ = 0;
    } else if (!mapped.status().IsUnavailable()) {
      return mapped.status();  // hard error (e.g. file missing)
    }
    // Unavailable: mapping disabled or impossible here — fall back to the
    // buffered file path below, which serves identical bytes.
  }
  if (mapping_ == nullptr) {
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr) {
      return Status::NotFound("cannot open " + path);
    }
  }
  char got[8];
  if (!ReadFrame(got, 8) || std::memcmp(got, magic, 8) != 0) {
    return Status::InvalidArgument(path + " is not a " + std::string(magic, 7) +
                                   " file (bad magic)");
  }
  unsigned char vb[4];
  if (!ReadFrame(vb, 4)) {
    return Status::IOError(path + ": truncated header");
  }
  uint32_t got_version = static_cast<uint32_t>(vb[0]) | static_cast<uint32_t>(vb[1]) << 8 |
                         static_cast<uint32_t>(vb[2]) << 16 |
                         static_cast<uint32_t>(vb[3]) << 24;
  if (got_version < min_version || got_version > max_version) {
    std::string want = "v";
    want += std::to_string(min_version);
    if (min_version != max_version) {
      want += "..v";
      want += std::to_string(max_version);
    }
    return Status::InvalidArgument("format version mismatch: file has v" +
                                   std::to_string(got_version) + ", reader expects " +
                                   want);
  }
  if (version_out != nullptr) *version_out = got_version;
  stream_offset_ = 12;
  return Status::OK();
}

bool Reader::ReadFrame(void* out, size_t n) {
  if (frame_data_ != nullptr) {
    if (frame_cursor_ + n > frame_size_) return false;
    std::memcpy(out, frame_data_ + frame_cursor_, n);
    frame_cursor_ += n;
    return true;
  }
  return std::fread(out, 1, n, file_) == n;
}

Status Reader::OpenSection(uint32_t id) {
  D3L_RETURN_NOT_OK(status_);
  if (file_ == nullptr && frame_data_ == nullptr) {
    return Status::Internal("Reader not open");
  }
  unsigned char header[12];
  if (!ReadFrame(header, sizeof(header))) {
    return Status::IOError("truncated file: missing section header");
  }
  uint32_t got_id = static_cast<uint32_t>(header[0]) |
                    static_cast<uint32_t>(header[1]) << 8 |
                    static_cast<uint32_t>(header[2]) << 16 |
                    static_cast<uint32_t>(header[3]) << 24;
  uint64_t size = 0;
  for (size_t i = 0; i < 8; ++i) {
    size |= static_cast<uint64_t>(header[4 + i]) << (8 * i);
  }
  if (got_id != id) {
    char want[5] = {static_cast<char>(id), static_cast<char>(id >> 8),
                    static_cast<char>(id >> 16), static_cast<char>(id >> 24), 0};
    char got[5] = {static_cast<char>(got_id), static_cast<char>(got_id >> 8),
                   static_cast<char>(got_id >> 16), static_cast<char>(got_id >> 24), 0};
    return Status::InvalidArgument(std::string("expected section '") + want +
                                   "', found '" + got + "'");
  }
  payload_offset_ = stream_offset_ + 12;
  if (frame_data_ != nullptr) {
    // In-memory framing (buffer or mapping): the remaining input bounds the
    // payload, so a corrupt length is rejected BEFORE anything allocates
    // for it (network frames are untrusted input; see src/rpc) — and the
    // payload is served in place, no copy.
    if (size > frame_size_ - frame_cursor_) {
      return Status::IOError("truncated file: section payload cut short");
    }
    sec_data_ = frame_data_ + frame_cursor_;
    sec_size_ = static_cast<size_t>(size);
    frame_cursor_ += sec_size_;
  } else {
    section_.resize(size);
    if (size > 0 && !ReadFrame(section_.data(), size)) {
      return Status::IOError("truncated file: section payload cut short");
    }
    sec_data_ = section_.data();
    sec_size_ = section_.size();
  }
  cursor_ = 0;
  unsigned char cb[4];
  if (!ReadFrame(cb, 4)) {
    return Status::IOError("truncated file: missing section checksum");
  }
  stream_offset_ += 12 + size + 4;
  uint32_t got_crc = static_cast<uint32_t>(cb[0]) | static_cast<uint32_t>(cb[1]) << 8 |
                     static_cast<uint32_t>(cb[2]) << 16 |
                     static_cast<uint32_t>(cb[3]) << 24;
  uint32_t want_crc = Crc32(sec_data_, sec_size_);
  if (got_crc != want_crc) {
    return Status::IOError("corrupt file: section checksum mismatch");
  }
  return Status::OK();
}

Status Reader::EndSection() {
  D3L_RETURN_NOT_OK(status_);
  if (cursor_ != sec_size_) {
    return Status::Internal("section has " + std::to_string(sec_size_ - cursor_) +
                            " unread bytes");
  }
  return Status::OK();
}

void Reader::Fail(Status s) {
  if (status_.ok()) status_ = std::move(s);
}

bool Reader::TakeBytes(void* out, size_t n) {
  if (!status_.ok()) return false;
  if (cursor_ + n > sec_size_) {
    Fail(Status::OutOfRange("read past end of section payload"));
    return false;
  }
  std::memcpy(out, sec_data_ + cursor_, n);
  cursor_ += n;
  return true;
}

const char* Reader::TakeView(size_t n) {
  if (!status_.ok()) return nullptr;
  if (cursor_ + n > sec_size_) {
    Fail(Status::OutOfRange("read past end of section payload"));
    return nullptr;
  }
  const char* p = sec_data_ + cursor_;
  cursor_ += n;
  return p;
}

uint8_t Reader::ReadU8() {
  unsigned char b = 0;
  TakeBytes(&b, 1);
  return b;
}

uint32_t Reader::ReadU32() {
  unsigned char b[4] = {0, 0, 0, 0};
  if (!TakeBytes(b, 4)) return 0;
  return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
         static_cast<uint32_t>(b[2]) << 16 | static_cast<uint32_t>(b[3]) << 24;
}

uint64_t Reader::ReadU64() {
  unsigned char b[8] = {0};
  if (!TakeBytes(b, 8)) return 0;
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) v |= static_cast<uint64_t>(b[i]) << (8 * i);
  return v;
}

double Reader::ReadDouble() { return std::bit_cast<double>(ReadU64()); }

size_t Reader::ReadLength(size_t elem_size) {
  uint64_t n = ReadU64();
  if (!status_.ok()) return 0;
  size_t remaining = sec_size_ - cursor_;
  if (elem_size == 0) elem_size = 1;
  if (n > remaining / elem_size) {
    Fail(Status::OutOfRange("corrupt length prefix exceeds section payload"));
    return 0;
  }
  return static_cast<size_t>(n);
}

void Reader::AlignTo(size_t alignment) {
  if (alignment == 0 || !status_.ok()) return;
  const uint64_t offset = payload_offset_ + cursor_;
  const uint64_t pad = (alignment - offset % alignment) % alignment;
  if (pad == 0) return;
  if (TakeView(static_cast<size_t>(pad)) != nullptr) {
    pad_bytes_ += pad;
  }
}

const uint64_t* Reader::ReadU64Span(size_t n, std::vector<uint64_t>* owned) {
  owned->clear();
  const size_t bytes = n * sizeof(uint64_t);
  const char* view = TakeView(bytes);
  if (view == nullptr) return nullptr;
  if (kHostLittleEndian && mapped() &&
      reinterpret_cast<uintptr_t>(view) % alignof(uint64_t) == 0) {
    return reinterpret_cast<const uint64_t*>(view);
  }
  owned->resize(n);
  if constexpr (kHostLittleEndian) {
    // An empty vector's data() may be null, which memcpy must never get.
    if (bytes > 0) std::memcpy(owned->data(), view, bytes);
  } else {
    for (size_t i = 0; i < n; ++i) {
      uint64_t v = 0;
      for (size_t b = 0; b < 8; ++b) {
        v |= static_cast<uint64_t>(static_cast<unsigned char>(view[8 * i + b])) << (8 * b);
      }
      (*owned)[i] = v;
    }
  }
  return owned->data();
}

const uint32_t* Reader::ReadU32Span(size_t n, std::vector<uint32_t>* owned) {
  owned->clear();
  const size_t bytes = n * sizeof(uint32_t);
  const char* view = TakeView(bytes);
  if (view == nullptr) return nullptr;
  if (kHostLittleEndian && mapped() &&
      reinterpret_cast<uintptr_t>(view) % alignof(uint32_t) == 0) {
    return reinterpret_cast<const uint32_t*>(view);
  }
  owned->resize(n);
  if constexpr (kHostLittleEndian) {
    // An empty vector's data() may be null, which memcpy must never get.
    if (bytes > 0) std::memcpy(owned->data(), view, bytes);
  } else {
    for (size_t i = 0; i < n; ++i) {
      uint32_t v = 0;
      for (size_t b = 0; b < 4; ++b) {
        v |= static_cast<uint32_t>(static_cast<unsigned char>(view[4 * i + b])) << (8 * b);
      }
      (*owned)[i] = v;
    }
  }
  return owned->data();
}

std::string Reader::ReadString() {
  size_t n = ReadLength(1);
  std::string s;
  if (n == 0 || !status_.ok()) return s;
  s.resize(n);
  TakeBytes(s.data(), n);
  return s;
}

std::vector<uint64_t> Reader::ReadU64Vector() {
  size_t n = ReadLength(8);
  std::vector<uint64_t> v;
  v.reserve(n);
  for (size_t i = 0; i < n && status_.ok(); ++i) v.push_back(ReadU64());
  return v;
}

std::vector<double> Reader::ReadDoubleVector() {
  size_t n = ReadLength(8);
  std::vector<double> v;
  v.reserve(n);
  for (size_t i = 0; i < n && status_.ok(); ++i) v.push_back(ReadDouble());
  return v;
}

std::vector<float> Reader::ReadFloatVector() {
  size_t n = ReadLength(4);
  std::vector<float> v;
  v.reserve(n);
  for (size_t i = 0; i < n && status_.ok(); ++i) {
    v.push_back(std::bit_cast<float>(ReadU32()));
  }
  return v;
}

}  // namespace d3l::io
