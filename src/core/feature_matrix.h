// Table 3 of the paper ("Summary of cloud technology features") as
// structured data: the qualitative comparison of the three framework
// families. Kept in code so `ppcloud features`, which prints it, and the
// tests that check it against the *implemented* behaviour (e.g. which
// engines re-execute slow tasks) cannot drift from the documentation.
#pragma once

#include <string>
#include <vector>

#include "common/table.h"

namespace ppc::core {

struct FrameworkFeatures {
  std::string framework;            // column header of Table 3
  std::string programming_patterns;
  std::string fault_tolerance;
  std::string data_storage;
  std::string environments;
  std::string scheduling;
  /// Machine-checkable bits the engines must agree with:
  bool dynamic_global_queue = false;
  bool data_locality_aware = false;
  bool speculative_execution = false;
  bool static_partitioning = false;
  bool visibility_timeout_fault_tolerance = false;
};

/// The three rows of Table 3: AWS/Azure Classic Cloud, Hadoop, DryadLINQ.
std::vector<FrameworkFeatures> framework_feature_matrix();

/// Renders the matrix in the paper's row/column orientation.
ppc::Table feature_matrix_table();

}  // namespace ppc::core
