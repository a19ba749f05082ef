#include "relation/catm_io.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "relation/catm_format.h"
#include "relation/csv.h"

#if defined(__unix__) || defined(__APPLE__)
#define CATMARK_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define CATMARK_HAVE_MMAP 0
#endif

namespace catmark {

FileBytes::~FileBytes() {
#if CATMARK_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
}

FileBytes::FileBytes(FileBytes&& other) noexcept
    : size_(other.size_),
      owned_(std::move(other.owned_)),
      map_(other.map_),
      map_len_(other.map_len_) {
  // owned_'s buffer may relocate on move (SSO), so data_ must be re-derived
  // rather than copied.
  data_ = map_ != nullptr ? static_cast<const char*>(map_) : owned_.data();
  other.map_ = nullptr;
  other.map_len_ = 0;
  other.data_ = nullptr;
  other.size_ = 0;
}

FileBytes& FileBytes::operator=(FileBytes&& other) noexcept {
  if (this == &other) return *this;
#if CATMARK_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
  size_ = other.size_;
  owned_ = std::move(other.owned_);
  map_ = other.map_;
  map_len_ = other.map_len_;
  data_ = map_ != nullptr ? static_cast<const char*>(map_) : owned_.data();
  other.map_ = nullptr;
  other.map_len_ = 0;
  other.data_ = nullptr;
  other.size_ = 0;
  return *this;
}

Result<FileBytes> FileBytes::Open(const std::string& path) {
  FileBytes fb;
#if CATMARK_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                       PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);
      fb.map_ = map;
      fb.map_len_ = static_cast<std::size_t>(st.st_size);
      fb.data_ = static_cast<const char*>(map);
      fb.size_ = fb.map_len_;
      return fb;
    }
  }
  ::close(fd);  // not a regular file / empty / mmap refused: buffered read
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("error while reading '" + path + "'");
  }
  fb.owned_ = std::move(buf).str();
  fb.data_ = fb.owned_.data();
  fb.size_ = fb.owned_.size();
  return fb;
}

bool LooksLikeCatm(std::string_view bytes) {
  return bytes.size() >= sizeof(kCatmMagic) &&
         std::memcmp(bytes.data(), kCatmMagic, sizeof(kCatmMagic)) == 0;
}

namespace {

std::uint8_t TypeByte(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return 0;
    case ColumnType::kDouble:
      return 1;
    case ColumnType::kString:
      return 2;
  }
  CATMARK_CHECK(false) << "unknown ColumnType";
  return 0;
}

struct SectionEntry {
  std::uint8_t kind = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t checksum = 0;
};

/// Where the streaming encoder puts an image: the column sections in order,
/// starting at the first byte past the meta block, then (last) the header
/// and meta block at offset 0.
class CatmSink {
 public:
  virtual ~CatmSink() = default;
  virtual Status Append(const std::uint8_t* data, std::size_t n) = 0;
  virtual Status WriteHead(const std::uint8_t* data, std::size_t n) = 0;
};

/// Builds the image in a string sized once up front.
class StringSink final : public CatmSink {
 public:
  StringSink(std::string& out, std::size_t head_len, std::size_t total)
      : out_(out) {
    out_.reserve(total);
    out_.assign(head_len, '\0');
  }
  Status Append(const std::uint8_t* data, std::size_t n) override {
    out_.append(reinterpret_cast<const char*>(data), n);
    return Status::OK();
  }
  Status WriteHead(const std::uint8_t* data, std::size_t n) override {
    std::memcpy(out_.data(), data, n);
    return Status::OK();
  }

 private:
  std::string& out_;
};

#if CATMARK_HAVE_MMAP
/// Writes the image to an open file descriptor with pwrite: sections at
/// their final offsets, then the head at offset 0.
class FileSink final : public CatmSink {
 public:
  FileSink(int fd, const std::string& path, std::size_t head_len)
      : fd_(fd), path_(path), pos_(head_len) {}
  Status Append(const std::uint8_t* data, std::size_t n) override {
    CATMARK_RETURN_IF_ERROR(WriteAt(data, n, pos_));
    pos_ += n;
    return Status::OK();
  }
  Status WriteHead(const std::uint8_t* data, std::size_t n) override {
    return WriteAt(data, n, 0);
  }

 private:
  Status WriteAt(const std::uint8_t* data, std::size_t n, std::size_t at) {
    while (n > 0) {
      const ssize_t w = ::pwrite(fd_, data, n, static_cast<off_t>(at));
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) {
        if (w == 0) errno = EIO;
        return Status::IoError("error while writing '" + path_ +
                               "': " + std::strerror(errno));
      }
      data += w;
      n -= static_cast<std::size_t>(w);
      at += static_cast<std::size_t>(w);
    }
    return Status::OK();
  }

  int fd_;
  const std::string& path_;
  std::size_t pos_;
};
#endif

/// Bytes of the staging buffer plain sections and dictionary blobs are
/// encoded through before they reach the sink.
constexpr std::size_t kStageBytes = std::size_t{128} << 10;

/// Byte length of `v` in the value encoding.
std::size_t EncodedSize(const Value& v) {
  if (v.is_null()) return 1;
  return v.is_string() ? 9 + v.AsString().size() : 9;
}

std::size_t CountNulls(const Int64Cells& cells) {
  std::size_t nulls = 0;
  for (const std::uint64_t word : cells.nulls) {
    nulls += static_cast<std::size_t>(std::popcount(word));
  }
  return nulls;
}

/// Exact byte length of column `c`'s section.
std::uint64_t SectionLength(const ColumnStore& store, std::size_t c) {
  const std::uint64_t rows = store.num_rows();
  if (store.IsDictColumn(c)) {
    const std::vector<Value>& dict = store.Dict(c);
    std::uint64_t blob = 0;
    for (const Value& v : dict) blob += EncodedSize(v);
    return 4 + 8 * (dict.size() + 1) + blob + 8 * dict.size() + 4 * rows;
  }
  if (store.IsInt64Column(c)) {
    // A NULL is its tag byte; an int64 is a tag byte and 8 payload bytes.
    return rows + 8 * (rows - CountNulls(store.Int64Column(c)));
  }
  std::uint64_t len = 0;
  for (const Value& v : store.PlainValues(c)) len += EncodedSize(v);
  return len;
}

inline void StoreBeU64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  }
}

/// Streams one section: small writes collect in the staging buffer, large
/// arrays go to the sink directly, and every byte passes through the
/// section's checksum on the way. The first sink error sticks; later writes
/// are dropped.
class SectionWriter {
 public:
  SectionWriter(CatmSink& sink, std::vector<std::uint8_t>& stage,
                std::uint64_t length)
      : sink_(sink), stage_(stage), checksum_(length) {}

  /// Room for `n` <= kStageBytes staged bytes; the caller fills them.
  std::uint8_t* Stage(std::size_t n) {
    if (used_ + n > stage_.size()) Flush();
    std::uint8_t* p = stage_.data() + used_;
    used_ += n;
    return p;
  }
  void Put(const std::uint8_t* data, std::size_t n) {
    if (n > stage_.size() / 2) {
      Direct(data, n);
      return;
    }
    std::memcpy(Stage(n), data, n);
  }
  /// One value in the value encoding (Value::SerializeForHash).
  void PutValue(const Value& v) {
    value_bytes_.clear();
    v.SerializeForHash(value_bytes_);
    Put(value_bytes_.data(), value_bytes_.size());
  }
  template <typename T>
  void PutLe(T x) {
    std::uint8_t* p = Stage(sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(
          static_cast<std::make_unsigned_t<T>>(x) >> (8 * i));
    }
  }
  /// A little-endian array, straight from the caller's storage on
  /// little-endian hosts.
  template <typename T>
  void PutLeArray(const std::vector<T>& v) {
    if constexpr (std::endian::native == std::endian::little) {
      Direct(reinterpret_cast<const std::uint8_t*>(v.data()),
             v.size() * sizeof(T));
    } else {
      for (const T x : v) PutLe(x);
    }
  }

  /// Flushes the stage; the section checksum, or the first sink error.
  Result<std::uint64_t> Finish() {
    Flush();
    CATMARK_RETURN_IF_ERROR(status_);
    return checksum_.Finish();
  }

 private:
  void Direct(const std::uint8_t* data, std::size_t n) {
    Flush();
    checksum_.Update(data, n);
    if (status_.ok()) status_ = sink_.Append(data, n);
  }
  void Flush() {
    if (used_ == 0) return;
    checksum_.Update(stage_.data(), used_);
    if (status_.ok()) status_ = sink_.Append(stage_.data(), used_);
    used_ = 0;
  }

  CatmSink& sink_;
  std::vector<std::uint8_t>& stage_;
  CatmChecksumStream checksum_;
  std::size_t used_ = 0;
  Status status_;
  std::vector<std::uint8_t> value_bytes_;
};

void EncodeDictSection(const ColumnStore& store, std::size_t c,
                       SectionWriter& w) {
  const std::vector<Value>& dict = store.Dict(c);
  w.PutLe(static_cast<std::uint32_t>(dict.size()));
  std::uint64_t offset = 0;
  w.PutLe(offset);
  for (const Value& v : dict) {
    offset += EncodedSize(v);
    w.PutLe(offset);
  }
  for (const Value& v : dict) w.PutValue(v);
  w.PutLeArray(store.DictLiveCounts(c));
  w.PutLeArray(store.Codes(c));
}

void EncodeInt64Section(const Int64Cells& cells, SectionWriter& w) {
  for (std::size_t r = 0; r < cells.values.size(); ++r) {
    if (cells.is_null(r)) {
      *w.Stage(1) = 0;
      continue;
    }
    std::uint8_t* p = w.Stage(9);
    p[0] = 1;
    StoreBeU64(p + 1, static_cast<std::uint64_t>(cells.values[r]));
  }
}

/// Where everything lands in an image, fixed before the first byte is
/// written; the section checksums are filled in as the sections stream.
struct CatmLayout {
  std::size_t meta_length = 0;
  std::size_t head_len = 0;  // header + meta block: the sections' start
  std::uint64_t total = 0;
  std::vector<SectionEntry> table;
};

CatmLayout LayOut(const Relation& rel) {
  const ColumnStore& store = rel.store();
  CatmLayout layout;
  for (const Column& col : rel.schema().columns()) {
    CATMARK_CHECK_LE(col.name.size(), std::size_t{0xFFFF})
        << "column name too long for .catm";
    layout.meta_length += kCatmMetaPerColumn + col.name.size();
  }
  CATMARK_CHECK_LE(layout.meta_length, std::size_t{0xFFFFFFFF})
      << "schema too large for .catm";
  layout.head_len = kCatmHeaderSize + layout.meta_length;
  layout.total = layout.head_len;
  layout.table.resize(rel.schema().num_columns());
  for (std::size_t c = 0; c < layout.table.size(); ++c) {
    SectionEntry& s = layout.table[c];
    s.kind = store.IsDictColumn(c) ? kCatmSectionDict : kCatmSectionPlain;
    s.offset = layout.total;
    s.length = SectionLength(store, c);
    layout.total += s.length;
  }
  return layout;
}

/// The encoder behind WriteCatmString and WriteCatmFile: streams every
/// section into `sink`, then writes the head, which carries their
/// checksums.
Status WriteCatm(const Relation& rel, CatmLayout& layout, CatmSink& sink) {
  const Schema& schema = rel.schema();
  const ColumnStore& store = rel.store();
  std::vector<std::uint8_t> stage(kStageBytes);
  for (std::size_t c = 0; c < layout.table.size(); ++c) {
    SectionWriter w(sink, stage, layout.table[c].length);
    if (store.IsDictColumn(c)) {
      EncodeDictSection(store, c, w);
    } else if (store.IsInt64Column(c)) {
      EncodeInt64Section(store.Int64Column(c), w);
    } else {
      for (const Value& v : store.PlainValues(c)) w.PutValue(v);
    }
    CATMARK_ASSIGN_OR_RETURN(layout.table[c].checksum, w.Finish());
  }

  // The head: header fields, then the checksummed counts, schema entries
  // and section table; the meta checksum goes in once they are all there.
  std::vector<std::uint8_t> head(kCatmChecksumStart);
  std::memcpy(head.data(), kCatmMagic, sizeof(kCatmMagic));
  AppendLeU64(head, store.num_rows());
  AppendLeU32(head, static_cast<std::uint32_t>(layout.table.size()));
  AppendLeI32(head, schema.primary_key_index());
  for (const Column& col : schema.columns()) {
    AppendLeU16(head, static_cast<std::uint16_t>(col.name.size()));
    head.insert(head.end(), col.name.begin(), col.name.end());
    head.push_back(TypeByte(col.type));
    head.push_back(col.categorical ? 1 : 0);
  }
  for (const SectionEntry& s : layout.table) {
    head.push_back(s.kind);
    AppendLeU64(head, s.offset);
    AppendLeU64(head, s.length);
    AppendLeU64(head, s.checksum);
  }
  CATMARK_CHECK_EQ(head.size(), layout.head_len);
  std::vector<std::uint8_t> fields;
  AppendLeU32(fields, kCatmVersion);
  AppendLeU32(fields, static_cast<std::uint32_t>(layout.meta_length));
  AppendLeU64(fields, CatmChecksum(head.data() + kCatmChecksumStart,
                                   head.size() - kCatmChecksumStart));
  std::memcpy(head.data() + sizeof(kCatmMagic), fields.data(), fields.size());
  return sink.WriteHead(head.data(), head.size());
}

}  // namespace

std::string WriteCatmString(const Relation& rel) {
  CatmLayout layout = LayOut(rel);
  std::string out;
  StringSink sink(out, layout.head_len, layout.total);
  const Status written = WriteCatm(rel, layout, sink);
  CATMARK_CHECK(written.ok()) << written.ToString();
  return out;
}

Status WriteCatmFile(const Relation& rel, const std::string& path) {
#if CATMARK_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path +
                           "' for writing: " + std::strerror(errno));
  }
  CatmLayout layout = LayOut(rel);
  FileSink sink(fd, path, layout.head_len);
  Status status = WriteCatm(rel, layout, sink);
  // Only a regular file is ours to remove: the path may name a device.
  struct stat st {};
  const bool regular = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  if (::close(fd) != 0 && status.ok()) {
    status = Status::IoError("error while closing '" + path +
                             "': " + std::strerror(errno));
  }
  if (!status.ok() && regular) ::unlink(path.c_str());
  return status;
#else
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  const std::string bytes = WriteCatmString(rel);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    out.close();
    std::remove(path.c_str());
    return Status::IoError("error while writing '" + path + "'");
  }
  return Status::OK();
#endif
}

namespace {

/// Big-endian u64 load; the shift-or fold compiles to one byte-swapped load.
inline std::uint64_t LoadBeU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

/// On malformed plain-section input the failing value is re-decoded
/// through DecodeValue, so a corrupt image surfaces the exact same Status as
/// on the generic path; a value that decodes fine but carries the wrong tag
/// is a schema/type mismatch.
Status PlainValueFailure(const std::uint8_t* at, const std::uint8_t* end,
                         const std::string& name) {
  ByteReader vr(at, static_cast<std::size_t>(end - at));
  Value v;
  CATMARK_RETURN_IF_ERROR(DecodeValue(vr, v));
  return Status::InvalidArgument(
      ".catm value type disagrees with the schema in column '" + name + "'");
}

Status PlainTrailingBytes(const std::string& name) {
  return Status::InvalidArgument(
      ".catm plain section has trailing bytes in column '" + name + "'");
}

/// Decodes a typed int64 section straight into raw cells: no Value per row.
/// Every value takes at least one byte, so the row count is capped by the
/// section length before anything is sized by it; a count beyond that can
/// never finish and fails on the first missing value.
Status DecodeInt64Section(ByteReader& r, std::uint64_t num_rows,
                          const std::string& name, Int64Cells& cells) {
  const std::size_t section_len = r.remaining();
  const std::uint8_t* p = nullptr;
  r.ReadBytes(section_len, p);
  const std::uint8_t* const end = p + section_len;
  const auto rows = static_cast<std::size_t>(
      std::min<std::uint64_t>(num_rows, section_len));
  cells.values.resize(rows);
  std::int64_t* const values = cells.values.data();
  for (std::size_t i = 0; i < num_rows; ++i) {
    const std::uint8_t* const at = p;
    if (p == end) return PlainValueFailure(at, end, name);
    const std::uint8_t tag = *p++;
    if (tag == 1) {
      if (end - p < 8) return PlainValueFailure(at, end, name);
      values[i] = static_cast<std::int64_t>(LoadBeU64(p));
      p += 8;
    } else if (tag == 0) {
      if (cells.nulls.empty()) cells.nulls.assign((rows + 63) / 64, 0);
      cells.nulls[i >> 6] |= std::uint64_t{1} << (i & 63);
    } else {
      return PlainValueFailure(at, end, name);
    }
  }
  if (p != end) return PlainTrailingBytes(name);
  return Status::OK();
}

/// Decodes a double or string plain section with a tight raw-pointer loop.
/// DecodeValue produces identical values, but pays an out-of-line call per
/// value.
Status DecodePlainSection(ByteReader& r, ColumnType type,
                          std::uint64_t num_rows, const std::string& name,
                          std::vector<Value>& values) {
  const std::size_t section_len = r.remaining();
  const std::uint8_t* p = nullptr;
  r.ReadBytes(section_len, p);
  const std::uint8_t* const end = p + section_len;
  // Every value takes at least one byte, so a row count beyond the section
  // length can never finish; the cap keeps a corrupt count from
  // over-reserving.
  values.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(num_rows, section_len)));
  const std::uint8_t want_tag = type == ColumnType::kDouble ? 2 : 3;
  for (std::uint64_t i = 0; i < num_rows; ++i) {
    const std::uint8_t* const at = p;
    if (p == end) return PlainValueFailure(at, end, name);
    const std::uint8_t tag = *p++;
    if (tag == want_tag) {
      if (end - p < 8) return PlainValueFailure(at, end, name);
      const std::uint64_t u = LoadBeU64(p);
      p += 8;
      if (tag == 2) {
        values.emplace_back(std::bit_cast<double>(u));
      } else {
        if (u > static_cast<std::uint64_t>(end - p)) {
          return PlainValueFailure(at, end, name);
        }
        values.emplace_back(std::string(reinterpret_cast<const char*>(p),
                                        static_cast<std::size_t>(u)));
        p += u;
      }
    } else if (tag == 0) {
      values.emplace_back();
    } else {
      return PlainValueFailure(at, end, name);
    }
  }
  if (p != end) return PlainTrailingBytes(name);
  return Status::OK();
}

Result<Relation> ReadCatmImpl(std::string_view bytes, const Schema* expected) {
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  if (!LooksLikeCatm(bytes)) {
    return Status::InvalidArgument("not a .catm file (bad magic)");
  }
  if (bytes.size() < kCatmHeaderSize) {
    return Status::DataLoss("truncated .catm file: " +
                            std::to_string(bytes.size()) +
                            " bytes is shorter than the header");
  }
  ByteReader hdr(data + sizeof(kCatmMagic),
                 kCatmHeaderSize - sizeof(kCatmMagic));
  std::uint32_t version = 0;
  std::uint32_t meta_length = 0;
  std::uint64_t meta_checksum = 0;
  std::uint64_t num_rows = 0;
  std::uint32_t num_columns = 0;
  std::int32_t pk_index = 0;
  hdr.ReadLeU32(version);
  hdr.ReadLeU32(meta_length);
  hdr.ReadLeU64(meta_checksum);
  hdr.ReadLeU64(num_rows);
  hdr.ReadLeU32(num_columns);
  hdr.ReadLeI32(pk_index);
  if (version != kCatmVersion) {
    return Status::InvalidArgument("unsupported .catm version " +
                                   std::to_string(version) +
                                   " (this build reads version " +
                                   std::to_string(kCatmVersion) + ")");
  }

  const std::uint64_t sections_start =
      static_cast<std::uint64_t>(kCatmHeaderSize) + meta_length;
  if (sections_start > bytes.size()) {
    return Status::DataLoss("truncated .catm file: meta block runs past EOF");
  }
  const std::uint64_t actual = CatmChecksum(
      data + kCatmChecksumStart,
      static_cast<std::size_t>(sections_start) - kCatmChecksumStart);
  if (actual != meta_checksum) {
    return Status::DataLoss(".catm meta checksum mismatch");
  }

  // The meta checksum verified; everything below is protected against
  // corruption-in-transit, so remaining failures are malformed files.
  if (num_columns == 0) {
    return Status::InvalidArgument(".catm file declares zero columns");
  }
  if (num_columns > meta_length / kCatmMetaPerColumn) {
    return Status::InvalidArgument(
        ".catm column count " + std::to_string(num_columns) +
        " exceeds what the meta block can describe");
  }
  // Every row costs >= 1 byte in every column section, so a row count
  // beyond the file size is bogus — reject before sizing any vector by it.
  if (num_rows > bytes.size()) {
    return Status::InvalidArgument(".catm row count " +
                                   std::to_string(num_rows) +
                                   " exceeds the file size");
  }

  ByteReader meta(data + kCatmHeaderSize, meta_length);
  std::vector<Column> columns(num_columns);
  for (std::size_t c = 0; c < num_columns; ++c) {
    std::uint16_t name_len = 0;
    const std::uint8_t* name = nullptr;
    std::uint8_t type = 0;
    std::uint8_t categorical = 0;
    if (!meta.ReadLeU16(name_len) || !meta.ReadBytes(name_len, name) ||
        !meta.ReadU8(type) || !meta.ReadU8(categorical)) {
      return Status::InvalidArgument(".catm meta block ends inside schema");
    }
    if (type > 2) {
      return Status::InvalidArgument(".catm column " + std::to_string(c) +
                                     " has unknown type byte " +
                                     std::to_string(type));
    }
    if (categorical > 1) {
      return Status::InvalidArgument(".catm column " + std::to_string(c) +
                                     " has a categorical flag that is not 0/1");
    }
    columns[c].name.assign(reinterpret_cast<const char*>(name), name_len);
    columns[c].type = static_cast<ColumnType>(type);
    columns[c].categorical = categorical == 1;
  }
  std::string pk_name;
  if (pk_index != -1) {
    if (pk_index < 0 || static_cast<std::uint32_t>(pk_index) >= num_columns) {
      return Status::InvalidArgument(".catm primary key index " +
                                     std::to_string(pk_index) +
                                     " is out of range");
    }
    pk_name = columns[static_cast<std::size_t>(pk_index)].name;
  }
  Result<Schema> schema_r = Schema::Create(std::move(columns), pk_name);
  if (!schema_r.ok()) {
    return Status::InvalidArgument(".catm schema is invalid: " +
                                   schema_r.status().message());
  }
  Schema schema = std::move(schema_r).value();

  std::vector<SectionEntry> table(num_columns);
  std::uint64_t expect_offset = sections_start;
  for (std::size_t c = 0; c < num_columns; ++c) {
    SectionEntry& s = table[c];
    if (!meta.ReadU8(s.kind) || !meta.ReadLeU64(s.offset) ||
        !meta.ReadLeU64(s.length) || !meta.ReadLeU64(s.checksum)) {
      return Status::InvalidArgument(
          ".catm meta block ends inside the section table");
    }
    if (s.kind != kCatmSectionDict && s.kind != kCatmSectionPlain) {
      return Status::InvalidArgument(".catm column " + std::to_string(c) +
                                     " has unknown section kind " +
                                     std::to_string(s.kind));
    }
    const bool want_dict = schema.column(c).categorical;
    if ((s.kind == kCatmSectionDict) != want_dict) {
      return Status::InvalidArgument(
          ".catm section kind disagrees with the schema for column '" +
          schema.column(c).name + "'");
    }
    if (s.offset != expect_offset) {
      return Status::InvalidArgument(
          ".catm sections are not contiguous at column " + std::to_string(c));
    }
    if (s.offset > bytes.size() || s.length > bytes.size() - s.offset) {
      return Status::DataLoss("truncated .catm file: section for column " +
                              std::to_string(c) + " runs past EOF");
    }
    expect_offset = s.offset + s.length;
  }
  if (!meta.AtEnd()) {
    return Status::InvalidArgument(".catm meta block has trailing bytes");
  }
  if (expect_offset != bytes.size()) {
    return Status::InvalidArgument(
        ".catm file has trailing bytes after the last section");
  }

  ColumnStore store(schema);
  for (std::size_t c = 0; c < num_columns; ++c) {
    const SectionEntry& s = table[c];
    const std::uint8_t* sp = data + s.offset;
    const auto slen = static_cast<std::size_t>(s.length);
    if (CatmChecksum(sp, slen) != s.checksum) {
      return Status::DataLoss(".catm section checksum mismatch in column '" +
                              schema.column(c).name + "'");
    }
    ByteReader r(sp, slen);
    const ColumnType type = schema.column(c).type;
    if (s.kind == kCatmSectionDict) {
      std::uint32_t dict_count = 0;
      if (!r.ReadLeU32(dict_count)) {
        return Status::InvalidArgument(".catm dict section for column '" +
                                       schema.column(c).name +
                                       "' is too short");
      }
      std::vector<std::uint64_t> offsets;
      if (!r.ReadLeU64Array(static_cast<std::size_t>(dict_count) + 1,
                            offsets)) {
        return Status::InvalidArgument(
            ".catm dict offsets run past the section end in column '" +
            schema.column(c).name + "'");
      }
      const std::uint64_t live_bytes = std::uint64_t{dict_count} * 8;
      const std::uint64_t code_bytes = num_rows * 4;
      if (live_bytes + code_bytes > r.remaining()) {
        return Status::InvalidArgument(
            ".catm dict section too short for live counts and codes in "
            "column '" +
            schema.column(c).name + "'");
      }
      const std::size_t blob_len =
          r.remaining() - static_cast<std::size_t>(live_bytes + code_bytes);
      if (offsets.front() != 0 || offsets.back() != blob_len) {
        return Status::InvalidArgument(
            ".catm dict blob length disagrees with its offsets in column '" +
            schema.column(c).name + "'");
      }
      // Full monotonicity must hold before any entry is decoded: together
      // with front()==0 and back()==blob_len it bounds every offset by
      // blob_len, so no ByteReader below can reach past the blob.
      for (std::size_t i = 0; i < dict_count; ++i) {
        if (offsets[i] > offsets[i + 1]) {
          return Status::InvalidArgument(
              ".catm dict offsets are not monotone in column '" +
              schema.column(c).name + "'");
        }
      }
      const std::uint8_t* blob = nullptr;
      r.ReadBytes(blob_len, blob);
      std::vector<Value> dict(dict_count);
      for (std::size_t i = 0; i < dict_count; ++i) {
        ByteReader vr(blob + offsets[i],
                      static_cast<std::size_t>(offsets[i + 1] - offsets[i]));
        CATMARK_RETURN_IF_ERROR(DecodeValue(vr, dict[i]));
        if (!vr.AtEnd()) {
          return Status::InvalidArgument(
              ".catm dict entry has trailing bytes in column '" +
              schema.column(c).name + "'");
        }
        if (dict[i].is_null()) {
          return Status::InvalidArgument(
              ".catm dictionary contains a NULL entry in column '" +
              schema.column(c).name + "'");
        }
        if (!dict[i].MatchesType(type)) {
          return Status::InvalidArgument(
              ".catm dict entry type disagrees with the schema in column '" +
              schema.column(c).name + "'");
        }
      }
      std::vector<std::int64_t> live;
      std::vector<std::int32_t> codes;
      r.ReadLeI64Array(dict_count, live);
      r.ReadLeI32Array(static_cast<std::size_t>(num_rows), codes);
      CATMARK_RETURN_IF_ERROR(
          store.InstallDictColumn(c, std::move(dict), std::move(live),
                                  std::move(codes)));
    } else if (type == ColumnType::kInt64) {
      Int64Cells cells;
      CATMARK_RETURN_IF_ERROR(DecodeInt64Section(
          r, num_rows, schema.column(c).name, cells));
      CATMARK_RETURN_IF_ERROR(store.InstallInt64Column(c, std::move(cells)));
    } else {
      std::vector<Value> values;
      CATMARK_RETURN_IF_ERROR(DecodePlainSection(
          r, type, num_rows, schema.column(c).name, values));
      CATMARK_RETURN_IF_ERROR(store.InstallPlainColumn(c, std::move(values)));
    }
  }
  CATMARK_RETURN_IF_ERROR(
      store.FinalizeInstall(static_cast<std::size_t>(num_rows)));

  if (expected != nullptr && !(schema == *expected)) {
    return Status::InvalidArgument(
        ".catm schema does not match the expected schema; file has: " +
        schema.ToString());
  }
  return Relation(std::move(schema), std::move(store));
}

}  // namespace

Result<Relation> ReadCatmString(std::string_view bytes) {
  return ReadCatmImpl(bytes, nullptr);
}

Result<Relation> ReadCatmString(std::string_view bytes,
                                const Schema& expected) {
  return ReadCatmImpl(bytes, &expected);
}

Result<Relation> ReadCatmFile(const std::string& path) {
  CATMARK_ASSIGN_OR_RETURN(FileBytes bytes, FileBytes::Open(path));
  return ReadCatmString(bytes.view());
}

Result<Relation> ReadCatmFile(const std::string& path,
                              const Schema& expected) {
  CATMARK_ASSIGN_OR_RETURN(FileBytes bytes, FileBytes::Open(path));
  return ReadCatmString(bytes.view(), expected);
}

Result<Relation> LoadRelation(const std::string& path, const Schema& schema) {
  CATMARK_ASSIGN_OR_RETURN(FileBytes bytes, FileBytes::Open(path));
  if (LooksLikeCatm(bytes.view())) {
    return ReadCatmString(bytes.view(), schema);
  }
  // CSV ingest goes through the chunked parallel parser; its output is
  // byte-identical to the serial parser at every thread count.
  return ReadCsvStringParallel(bytes.view(), schema);
}

Status SaveRelation(const Relation& rel, const std::string& path) {
  constexpr std::string_view kExt = ".catm";
  if (path.size() >= kExt.size() &&
      std::string_view(path).substr(path.size() - kExt.size()) == kExt) {
    return WriteCatmFile(rel, path);
  }
  return WriteCsvFile(rel, path);
}

}  // namespace catmark
