# Golden stdout check for one bench or example run, run by ctest in
# CMake script mode:
#
#   cmake -DBIN=<binary> -DGOLDEN=<tests/golden/benches/NAME.txt>
#         -DOUT=<scratch file> [-DARGS=<args;...>]
#         -P bench_fixture.cmake
#
# Runs BIN with ARGS and requires its stdout to equal GOLDEN byte
# for byte. Only stdout is compared: logs and progress go to stderr.
#
# scripts/capture_study_fixtures.sh recaptures the fixtures after a
# deliberate timing change.

cmake_minimum_required(VERSION 3.16)

foreach(var BIN GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "bench_fixture.cmake needs -D${var}=...")
    endif()
endforeach()

get_filename_component(outDir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${outDir}")

execute_process(
    COMMAND "${BIN}" ${ARGS}
    OUTPUT_FILE "${OUT}"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with '${status}'")
endif()

include("${CMAKE_CURRENT_LIST_DIR}/fixture_compare.cmake")
file(READ "${GOLDEN}" expected)
file(READ "${OUT}" actual)
require_equal("${OUT} (stdout)" "${expected}" "${actual}")
