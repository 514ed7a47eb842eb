// Hermetic scratch directory for one test case.
//
// ctest runs every discovered gtest case as its own process, concurrently
// under `ctest -j`, so a fixed path under ::testing::TempDir() is shared by
// every case (and every run) that names it: one case's cleanup deletes
// another's files mid-test. A ScratchDir is created fresh with mkdtemp under
// TempDir(), named after the running suite, case and pid, and removed with
// everything in it when the object goes out of scope.

#ifndef TESTS_SCRATCH_DIR_H_
#define TESTS_SCRATCH_DIR_H_

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace ampere {

class ScratchDir {
 public:
  ScratchDir() {
    std::string name = "ampere.";
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name.append(info->test_suite_name()).append(".");
      name.append(info->name()).append(".");
    }
    name.append(std::to_string(::getpid())).append(".XXXXXX");
    for (char& c : name) {
      if (c == '/') c = '_';  // Parameterized names carry '/'.
    }
    std::string pattern = ::testing::TempDir() + name;
    if (::mkdtemp(pattern.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed for " << pattern;
    }
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace ampere

#endif  // TESTS_SCRATCH_DIR_H_
