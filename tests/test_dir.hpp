// A scratch directory of its own for every test that touches the disk, so
// two test runs at once (two build trees, or a hand-run ctest beside a CI
// run) never read or delete each other's files.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>

namespace rcb {

/// Creates an empty directory "<prefix>_<test name>_XXXXXX" under the
/// system temp directory, with mkdtemp's unique suffix, and returns its
/// path.  The caller removes it.
inline std::string make_test_dir(std::string_view prefix) {
  std::string stem(prefix);
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    stem += '_';
    stem += info->name();
  }
  for (char& c : stem) {
    if (c == '/') c = '_';  // parameterised test names hold a '/'
  }
  std::string path =
      (std::filesystem::temp_directory_path() / (stem + "_XXXXXX")).string();
  if (::mkdtemp(path.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp(" << path << "): " << std::strerror(errno);
  }
  return path;
}

}  // namespace rcb
