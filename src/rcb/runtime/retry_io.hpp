// EINTR- and short-transfer-safe I/O helpers shared by every runtime path
// that touches file descriptors or stdio streams (checkpoint journals and
// the worker control connections), and the one whole-file reader.
//
// POSIX read/write may transfer fewer bytes than asked or fail with EINTR
// when a signal lands mid-call — and this codebase installs SIGINT/SIGTERM
// handlers (runtime/supervisor.hpp), so "a signal landed mid-write" is a
// normal event during graceful shutdown, not a corner case.  Every helper
// here loops until the full transfer completes, EOF is reached, or a real
// error occurs; EINTR is never surfaced to callers.
//
// Fault injection: set_io_fault installs a deterministic hook consulted
// before each underlying call with the operation name; returning a nonzero
// errno makes that call fail exactly as the OS would (no bytes move).
// Returning EINTR exercises the retry loops — the regression tests prove a
// signal storm cannot shear a journal append or a control frame.
#pragma once

#include <sys/types.h>

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

namespace rcb {

/// Test-only fault hook: consulted before each underlying syscall with the
/// operation name ("read", "send", "fread", "fwrite", "fflush").
/// A nonzero return fails that call with the returned errno before any
/// bytes move.  Thread-safe; pass nullptr to disarm.  No program calls it:
/// it stays as the EINTR-storm hook of transport_test.
using IoFaultHook = std::function<int(const char* op)>;
void set_io_fault(IoFaultHook hook);

/// One best-effort read retried only on EINTR — for non-blocking fds where
/// EAGAIN must reach the caller.  Returns read()'s result.
ssize_t retry_read_some(int fd, void* buf, std::size_t n);

/// One best-effort send(MSG_NOSIGNAL) retried only on EINTR — for
/// non-blocking sockets where EAGAIN must reach the caller (a dead peer
/// yields EPIPE instead of killing the process).  Returns send()'s result.
ssize_t retry_send_some(int fd, const void* buf, std::size_t n);

/// fwrite()s all `n` bytes, retrying short writes caused by EINTR.
/// Returns true on success (the stream error state is authoritative
/// otherwise).
bool retry_fwrite(std::FILE* f, const void* buf, std::size_t n);

/// fread()s up to `n` bytes, retrying EINTR; stops at EOF or a real
/// stream error.  Returns the bytes read.
std::size_t retry_fread(std::FILE* f, void* buf, std::size_t n);

/// fflush() retried on EINTR.  Returns 0 on success, EOF on error.
int retry_fflush(std::FILE* f);

/// Appends everything left in `f` to `out` with EINTR-safe stdio.  Returns
/// "" at EOF or the reason the read failed.
std::string read_stream_fully(std::FILE* f, std::string& out);

/// Replaces `out` with the file at `path`.  Returns "" or "cannot open|read
/// <what> '<path>': <reason>" (a directory opens, then fails to read).
std::string read_file_fully(const std::string& path, std::string& out,
                            std::string_view what = {});

}  // namespace rcb
