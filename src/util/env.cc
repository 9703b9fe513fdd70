#include "util/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace diffindex {

namespace {

Status PosixError(const std::string& context, int err) {
  return Status::IOError(context + ": " + std::strerror(err));
}

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const Slice& data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Flush() override { return Status::OK(); }

  Status Sync() override {
    // fdatasync keeps the durability promise the WAL makes without paying
    // for metadata sync on every append.
    if (::fdatasync(fd_) != 0) return PosixError(fname_, errno);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ >= 0 && ::close(fd_) != 0) {
      fd_ = -1;
      return PosixError(fname_, errno);
    }
    fd_ = -1;
    return Status::OK();
  }

 private:
  std::string fname_;
  int fd_;
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string fname, int fd, uint64_t size)
      : fname_(std::move(fname)), fd_(fd), size_(size) {}

  ~PosixRandomAccessFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ssize_t r = ::pread(fd_, scratch, n, static_cast<off_t>(offset));
    if (r < 0) return PosixError(fname_, errno);
    *result = Slice(scratch, static_cast<size_t>(r));
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  std::string fname_;
  int fd_;
  uint64_t size_;
};

class PosixSequentialFile final : public SequentialFile {
 public:
  PosixSequentialFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}

  ~PosixSequentialFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(size_t n, Slice* result, char* scratch) override {
    for (;;) {
      ssize_t r = ::read(fd_, scratch, n);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      *result = Slice(scratch, static_cast<size_t>(r));
      return Status::OK();
    }
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) == -1) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

 private:
  std::string fname_;
  int fd_;
};

class PosixEnv final : public Env {
 public:
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    int fd = ::open(fname.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixWritableFile>(fname, fd);
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY);
    if (fd < 0) return PosixError(fname, errno);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      int err = errno;
      ::close(fd);
      return PosixError(fname, err);
    }
    *result = std::make_unique<PosixRandomAccessFile>(
        fname, fd, static_cast<uint64_t>(st.st_size));
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixSequentialFile>(fname, fd);
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    return ::access(fname.c_str(), F_OK) == 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    result->clear();
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return PosixError(dir, errno);
    struct dirent* entry;
    while ((entry = ::readdir(d)) != nullptr) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      result->push_back(name);
    }
    ::closedir(d);
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    if (::unlink(fname.c_str()) != 0) return PosixError(fname, errno);
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string& dirname) override {
    // Create parents as well (mkdir -p semantics).
    std::string partial;
    for (size_t i = 0; i <= dirname.size(); i++) {
      if (i == dirname.size() || dirname[i] == '/') {
        if (!partial.empty() && ::mkdir(partial.c_str(), 0755) != 0 &&
            errno != EEXIST) {
          return PosixError(partial, errno);
        }
      }
      if (i < dirname.size()) partial.push_back(dirname[i]);
    }
    return Status::OK();
  }

  Status RemoveDirRecursively(const std::string& dirname) override {
    std::vector<std::string> children;
    if (!FileExists(dirname)) return Status::OK();
    Status s = GetChildren(dirname, &children);
    if (!s.ok()) return s;
    for (const auto& child : children) {
      const std::string path = dirname + "/" + child;
      struct stat st;
      if (::lstat(path.c_str(), &st) != 0) return PosixError(path, errno);
      if (S_ISDIR(st.st_mode)) {
        DIFFINDEX_RETURN_NOT_OK(RemoveDirRecursively(path));
      } else {
        DIFFINDEX_RETURN_NOT_OK(RemoveFile(path));
      }
    }
    if (::rmdir(dirname.c_str()) != 0) return PosixError(dirname, errno);
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    struct stat st;
    if (::stat(fname.c_str(), &st) != 0) return PosixError(fname, errno);
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    if (::rename(src.c_str(), target.c_str()) != 0) {
      return PosixError(src, errno);
    }
    return Status::OK();
  }
};

}  // namespace

Env* Env::Default() {
  // Never destroyed: avoids shutdown-order problems per the style guide.
  // ANALYZER_WAIVE(naked-new): leaked singleton, never destroyed
  static Env* env = new PosixEnv();
  return env;
}

}  // namespace diffindex
