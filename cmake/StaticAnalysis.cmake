# Static-analysis and build-accelerator wiring: clang-tidy gate, clang-format
# check, the vab-tidy domain analyzer, and ccache pickup.
#
# Targets (all no-ops with a warning when the host lacks the tool, so a
# g++-only container can still configure and build everything else):
#   cmake --build build --target tidy           # clang-tidy over src/, fails on findings
#   cmake --build build --target format-check   # clang-format --dry-run -Werror
#   cmake --build build --target format         # rewrites files in place
#   cmake --build build --target vab-tidy       # tools/vab_tidy/vab_tidy.py over src/

# ccache: transparently accelerates the CI sanitizer/tidy matrix; harmless
# locally. Opt out with -DVAB_CCACHE=OFF (e.g. when profiling compile time).
option(VAB_CCACHE "Use ccache as compiler launcher when available" ON)
if(VAB_CCACHE)
  find_program(VAB_CCACHE_EXE ccache)
  if(VAB_CCACHE_EXE)
    set(CMAKE_CXX_COMPILER_LAUNCHER "${VAB_CCACHE_EXE}" CACHE STRING "" FORCE)
    message(STATUS "ccache: enabled (${VAB_CCACHE_EXE})")
  endif()
endif()

# clang-tidy needs the compilation database to resolve includes and flags.
set(CMAKE_EXPORT_COMPILE_COMMANDS ON)

find_program(VAB_CLANG_TIDY_EXE NAMES clang-tidy clang-tidy-18 clang-tidy-17
                                      clang-tidy-16 clang-tidy-15 clang-tidy-14)
find_program(VAB_CLANG_FORMAT_EXE NAMES clang-format clang-format-18
                                        clang-format-17 clang-format-16
                                        clang-format-15 clang-format-14)
find_package(Python3 COMPONENTS Interpreter QUIET)

set(_vab_analysed_globs
    "${PROJECT_SOURCE_DIR}/src/*/*.cpp" "${PROJECT_SOURCE_DIR}/src/*/*.hpp")

if(VAB_CLANG_TIDY_EXE AND Python3_FOUND)
  add_custom_target(tidy
      COMMAND "${Python3_EXECUTABLE}" "${PROJECT_SOURCE_DIR}/tools/run_tidy.py"
              --clang-tidy "${VAB_CLANG_TIDY_EXE}"
              --build-dir "${CMAKE_BINARY_DIR}"
              "${PROJECT_SOURCE_DIR}/src"
      WORKING_DIRECTORY "${PROJECT_SOURCE_DIR}"
      COMMENT "clang-tidy over src/ (fails on findings)"
      VERBATIM)
else()
  add_custom_target(tidy
      COMMAND "${CMAKE_COMMAND}" -E echo
              "tidy: clang-tidy or python3 not found on this host; skipping"
      COMMENT "clang-tidy unavailable")
endif()

if(VAB_CLANG_FORMAT_EXE)
  file(GLOB_RECURSE _vab_format_files
       "${PROJECT_SOURCE_DIR}/src/*.[ch]pp"
       "${PROJECT_SOURCE_DIR}/tests/*.[ch]pp"
       "${PROJECT_SOURCE_DIR}/bench/*.[ch]pp"
       "${PROJECT_SOURCE_DIR}/examples/*.[ch]pp")
  add_custom_target(format-check
      COMMAND "${VAB_CLANG_FORMAT_EXE}" --dry-run -Werror ${_vab_format_files}
      COMMENT "clang-format check (dry run)"
      VERBATIM)
  add_custom_target(format
      COMMAND "${VAB_CLANG_FORMAT_EXE}" -i ${_vab_format_files}
      COMMENT "clang-format in place"
      VERBATIM)
else()
  foreach(_t format-check format)
    add_custom_target(${_t}
        COMMAND "${CMAKE_COMMAND}" -E echo
                "${_t}: clang-format not found on this host; skipping"
        COMMENT "clang-format unavailable")
  endforeach()
endif()

if(Python3_FOUND)
  add_custom_target(vab-tidy
      COMMAND "${Python3_EXECUTABLE}" "${PROJECT_SOURCE_DIR}/tools/vab_tidy/vab_tidy.py"
              --repo-root "${PROJECT_SOURCE_DIR}" "${PROJECT_SOURCE_DIR}/src"
      WORKING_DIRECTORY "${PROJECT_SOURCE_DIR}"
      COMMENT "vab-tidy domain analyzer over src/ (fails on findings)"
      VERBATIM)
else()
  add_custom_target(vab-tidy
      COMMAND "${CMAKE_COMMAND}" -E echo
              "vab-tidy: python3 not found on this host; skipping"
      COMMENT "vab-tidy unavailable")
endif()
