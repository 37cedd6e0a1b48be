// Unique scratch paths for tests. Concurrent ctest processes (ctest -j)
// share ::testing::TempDir(), so a fixed file name there collides between
// test cases of different processes.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace cgdnn::testing {

/// TempDir() + `stem` + the running test's name + this process's pid.
inline std::string UniqueTempPath(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + stem + "_" + name + "_" +
         std::to_string(::getpid());
}

}  // namespace cgdnn::testing
