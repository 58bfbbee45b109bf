#include "common/durable_io.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crash_point.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace psml::durable {

namespace {

[[noreturn]] void throw_errno(const std::string& op, const std::string& path) {
  throw IOError("durable_io: " + op + " failed for '" + path +
                "': " + std::strerror(errno));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

// RAII fd so the error paths below can't leak descriptors.
class Fd {
 public:
  Fd(const std::string& path, int flags, mode_t mode = 0) {
    do {
      fd_ = ::open(path.c_str(), flags, mode);
    } while (fd_ < 0 && errno == EINTR);
  }
  ~Fd() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  bool ok() const { return fd_ >= 0; }
  int get() const { return fd_; }

  // Close eagerly (checking the result — a deferred write error can surface
  // here). Returns false on failure.
  bool close_checked() {
    const int fd = fd_;
    fd_ = -1;
    return ::close(fd) == 0;
  }

 private:
  int fd_ = -1;
};

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  if (slash == 0) {
    return "/";
  }
  return path.substr(0, slash);
}

void fsync_dir(const std::string& dir) {
  Fd fd(dir, O_RDONLY | O_DIRECTORY);
  if (!fd.ok()) {
    throw_errno("open(dir)", dir);
  }
  if (::fsync(fd.get()) != 0) {
    throw_errno("fsync(dir)", dir);
  }
}

constexpr std::size_t kFileHeaderSize = 16;    // magic|version|count|crc
constexpr std::size_t kSectionHeaderSize = 20;  // tag|len|payload_crc|crc

}  // namespace

std::vector<std::uint8_t> encode_sections(
    const std::vector<Section>& sections) {
  std::vector<std::uint8_t> out;
  put_u32(out, kFileMagic);
  put_u32(out, kFileVersion);
  put_u32(out, static_cast<std::uint32_t>(sections.size()));
  put_u32(out, crc32(out.data(), out.size()));
  for (const Section& s : sections) {
    const std::size_t base = out.size();
    put_u32(out, s.tag);
    put_u64(out, s.payload.size());
    put_u32(out, crc32(s.payload.data(), s.payload.size()));
    put_u32(out, crc32(out.data() + base, out.size() - base));
    out.insert(out.end(), s.payload.begin(), s.payload.end());
  }
  return out;
}

std::vector<Section> decode_sections(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kFileHeaderSize) {
    throw IOError("durable_io: file shorter than header (" +
                  std::to_string(bytes.size()) + " bytes)");
  }
  if (get_u32(bytes.data()) != kFileMagic) {
    throw IOError("durable_io: bad magic");
  }
  const std::uint32_t version = get_u32(bytes.data() + 4);
  if (version != kFileVersion) {
    throw IOError("durable_io: unsupported version " + std::to_string(version));
  }
  if (get_u32(bytes.data() + 12) != crc32(bytes.data(), 12)) {
    throw IOError("durable_io: header CRC mismatch");
  }
  const std::uint32_t count = get_u32(bytes.data() + 8);
  std::vector<Section> sections;
  sections.reserve(count);
  std::size_t pos = kFileHeaderSize;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (bytes.size() - pos < kSectionHeaderSize) {
      throw IOError("durable_io: truncated section header (section " +
                    std::to_string(i) + ")");
    }
    const std::uint8_t* h = bytes.data() + pos;
    if (get_u32(h + 16) != crc32(h, 16)) {
      throw IOError("durable_io: section header CRC mismatch (section " +
                    std::to_string(i) + ")");
    }
    const std::uint64_t len = get_u64(h + 4);
    pos += kSectionHeaderSize;
    if (bytes.size() - pos < len) {
      throw IOError("durable_io: truncated section payload (section " +
                    std::to_string(i) + ")");
    }
    Section s;
    s.tag = get_u32(h);
    s.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                     bytes.begin() + static_cast<std::ptrdiff_t>(pos + len));
    if (get_u32(h + 12) != crc32(s.payload.data(), s.payload.size())) {
      throw IOError("durable_io: section payload CRC mismatch (section " +
                    std::to_string(i) + ")");
    }
    pos += len;
    sections.push_back(std::move(s));
  }
  if (pos != bytes.size()) {
    throw IOError("durable_io: trailing bytes after last section");
  }
  return sections;
}

const Section& find_section(const std::vector<Section>& sections,
                            std::uint32_t tag, const std::string& what) {
  for (const Section& s : sections) {
    if (s.tag == tag) {
      return s;
    }
  }
  throw IOError("durable_io: missing section: " + what);
}

void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  {
    Fd fd(tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (!fd.ok()) {
      throw_errno("open", tmp);
    }
    const std::uint8_t* p = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
      const ssize_t n = ::write(fd.get(), p, left);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        throw_errno("write", tmp);
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    if (::fsync(fd.get()) != 0) {
      throw_errno("fsync", tmp);
    }
    if (!fd.close_checked()) {
      throw_errno("close", tmp);
    }
  }
  // The temp file is durable; the destination still holds the previous
  // version (or nothing). A crash here leaves a stale .tmp that loaders
  // ignore — the "torn write" case chaos tests exercise.
  PSML_CRASH_POINT("durable.pre-rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw_errno("rename", tmp + " -> " + path);
  }
  // Make the rename itself durable before reporting success.
  fsync_dir(parent_dir(path));
  PSML_CRASH_POINT("durable.post-rename");
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  Fd fd(path, O_RDONLY);
  if (!fd.ok()) {
    throw_errno("open", path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd.get(), buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("read", path);
    }
    if (n == 0) {
      break;
    }
    bytes.insert(bytes.end(), buf, buf + n);
  }
  return bytes;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void remove_file(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    throw_errno("unlink", path);
  }
}

void ensure_dir(const std::string& path) {
  if (path.empty() || path == "/" || path == ".") {
    return;
  }
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0) {
    if (!S_ISDIR(st.st_mode)) {
      throw IOError("durable_io: '" + path + "' exists and is not a directory");
    }
    return;
  }
  ensure_dir(parent_dir(path));
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    throw_errno("mkdir", path);
  }
}

std::vector<std::string> list_dir(const std::string& path) {
  std::vector<std::string> names;
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    return names;
  }
  while (struct dirent* e = ::readdir(dir)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") {
      continue;
    }
    struct stat st{};
    if (::stat((path + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      names.push_back(name);
    }
  }
  ::closedir(dir);
  return names;
}

void write_sections(const std::string& path,
                    const std::vector<Section>& sections) {
  atomic_write_file(path, encode_sections(sections));
}

std::vector<Section> load_sections(const std::string& path) {
  return decode_sections(read_file(path));
}

std::vector<std::uint8_t> Manifest::encode() const {
  std::vector<std::uint8_t> out;
  put_u32(out, kFileVersion);
  put_u64(out, commit_id);
  put_u64(out, epoch);
  put_u64(out, step);
  put_u64(out, seq);
  put_u64(out, matmul_cursor);
  put_u64(out, elem_cursor);
  put_u64(out, act_cursor);
  put_u64(out, layer_cursor);
  return out;
}

Manifest Manifest::decode(const std::vector<std::uint8_t>& bytes) {
  constexpr std::size_t kSize = 4 + 8 * 8;
  if (bytes.size() != kSize) {
    throw IOError("durable_io: manifest size " + std::to_string(bytes.size()) +
                  ", expected " + std::to_string(kSize));
  }
  const std::uint32_t version = get_u32(bytes.data());
  if (version != kFileVersion) {
    throw IOError("durable_io: unsupported manifest version " +
                  std::to_string(version));
  }
  Manifest m;
  m.commit_id = get_u64(bytes.data() + 4);
  m.epoch = get_u64(bytes.data() + 12);
  m.step = get_u64(bytes.data() + 20);
  m.seq = get_u64(bytes.data() + 28);
  m.matmul_cursor = get_u64(bytes.data() + 36);
  m.elem_cursor = get_u64(bytes.data() + 44);
  m.act_cursor = get_u64(bytes.data() + 52);
  m.layer_cursor = get_u64(bytes.data() + 60);
  return m;
}

}  // namespace psml::durable
