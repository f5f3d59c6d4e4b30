#include "rcb/runtime/retry_io.hpp"

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>

namespace rcb {

namespace {

std::mutex g_io_fault_mutex;
IoFaultHook g_io_fault;

/// Returns the injected errno for operation `op` (0 = no fault).
int injected_errno(const char* op) {
  IoFaultHook hook;
  {
    std::lock_guard<std::mutex> lock(g_io_fault_mutex);
    hook = g_io_fault;
  }
  return hook ? hook(op) : 0;
}

}  // namespace

void set_io_fault(IoFaultHook hook) {
  std::lock_guard<std::mutex> lock(g_io_fault_mutex);
  g_io_fault = std::move(hook);
}

ssize_t retry_read_some(int fd, void* buf, std::size_t n) {
  for (;;) {
    if (const int err = injected_errno("read"); err != 0) {
      if (err == EINTR) continue;
      errno = err;
      return -1;
    }
    const ssize_t k = ::read(fd, buf, n);
    if (k < 0 && errno == EINTR) continue;
    return k;
  }
}

ssize_t retry_send_some(int fd, const void* buf, std::size_t n) {
  for (;;) {
    if (const int err = injected_errno("send"); err != 0) {
      if (err == EINTR) continue;
      errno = err;
      return -1;
    }
    const ssize_t k = ::send(fd, buf, n, MSG_NOSIGNAL);
    if (k < 0 && errno == EINTR) continue;
    return k;
  }
}

bool retry_fwrite(std::FILE* f, const void* buf, std::size_t n) {
  std::size_t put = 0;
  while (put < n) {
    if (const int err = injected_errno("fwrite"); err != 0) {
      if (err == EINTR) continue;
      errno = err;
      return false;
    }
    const std::size_t k =
        std::fwrite(static_cast<const char*>(buf) + put, 1, n - put, f);
    put += k;
    if (put < n) {
      if (std::ferror(f) != 0 && errno == EINTR) {
        // A signal sheared the underlying write; the stream error state is
        // sticky, so clear it and resume from the bytes that did land.
        std::clearerr(f);
        continue;
      }
      return false;
    }
  }
  return true;
}

std::size_t retry_fread(std::FILE* f, void* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    if (const int err = injected_errno("fread"); err != 0) {
      if (err == EINTR) continue;
      errno = err;
      return got;
    }
    const std::size_t k =
        std::fread(static_cast<char*>(buf) + got, 1, n - got, f);
    got += k;
    if (got < n) {
      if (std::ferror(f) != 0 && errno == EINTR) {
        std::clearerr(f);
        continue;
      }
      break;  // EOF or real error; the stream state says which
    }
  }
  return got;
}

int retry_fflush(std::FILE* f) {
  for (;;) {
    if (const int err = injected_errno("fflush"); err != 0) {
      if (err == EINTR) continue;
      errno = err;
      return EOF;
    }
    if (std::fflush(f) == 0) return 0;
    if (errno == EINTR) {
      std::clearerr(f);
      continue;
    }
    return EOF;
  }
}

std::string read_stream_fully(std::FILE* f, std::string& out) {
  // Read straight into `out`, reserved to what fstat says is left (plus the
  // byte that lets the first short read prove EOF), and keep reading past
  // it so a file that grows meanwhile still reads fully.
  struct stat st;
  const long at = std::ftell(f);
  if (::fstat(::fileno(f), &st) == 0 && S_ISREG(st.st_mode) && at >= 0 &&
      st.st_size > at) {
    out.reserve(out.size() + static_cast<std::size_t>(st.st_size - at) + 1);
  }
  std::size_t want, got;
  do {
    const std::size_t have = out.size();
    want = std::max<std::size_t>(out.capacity() - have, 1 << 16);
    out.resize(have + want);
    got = retry_fread(f, out.data() + have, want);
    out.resize(have + got);
    if (std::ferror(f) != 0) return std::strerror(errno);
  } while (got == want);
  return "";
}

std::string read_file_fully(const std::string& path, std::string& out,
                            std::string_view what) {
  out.clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  const bool opened = f != nullptr;
  const std::string err = opened ? read_stream_fully(f, out)
                                 : std::string(std::strerror(errno));
  if (opened) std::fclose(f);
  if (err.empty()) return "";
  return (opened ? "cannot read " : "cannot open ") +
         (what.empty() ? "" : std::string(what) + " ") + "'" + path +
         "': " + err;
}

}  // namespace rcb
