# Per-study golden fixture check, run by ctest in CMake script mode:
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<tests/golden/studies/NAME>
#         -DOUT=<scratch prefix> [-DARGS=<extra;bench;args>]
#         [-DUNORDERED=ON] -P study_fixture.cmake
#
# Reruns one study bench at --quick with --results and requires
#   1. stdout (every study's table) to equal GOLDEN.txt byte for
#      byte, and
#   2. the result store (the bench's last study: each study call
#      reopens --results) to equal GOLDEN.jsonl byte for byte once
#      every record's host wall time is cleared and its "jobs" tag
#      (the worker count, not part of the design point) dropped.
#      With UNORDERED (a run on several workers, which append in
#      completion order) the records are compared as sorted lines.
#
# scripts/capture_study_fixtures.sh recaptures the fixtures after a
# deliberate timing change.

cmake_minimum_required(VERSION 3.16)

foreach(var BENCH GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "study_fixture.cmake needs -D${var}=...")
    endif()
endforeach()

get_filename_component(outDir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${outDir}")
file(REMOVE "${OUT}.jsonl")

execute_process(
    COMMAND "${BENCH}" --quick "--results=${OUT}.jsonl" ${ARGS}
    OUTPUT_FILE "${OUT}.txt"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with '${status}'")
endif()

# Strip what legitimately varies run to run from one store.
function(normalize_store path var)
    file(READ "${path}" text)
    string(REGEX REPLACE "\"wallMs\":[-+0-9.eE]+" "\"wallMs\":0"
           text "${text}")
    string(REGEX REPLACE ",\"jobs\":[0-9]+" "" text "${text}")
    if(UNORDERED)
        string(REPLACE "\n" ";" lines "${text}")
        list(SORT lines)
        string(REPLACE ";" "\n" text "${lines}")
    endif()
    set(${var} "${text}" PARENT_SCOPE)
endfunction()

include("${CMAKE_CURRENT_LIST_DIR}/fixture_compare.cmake")

file(READ "${GOLDEN}.txt" expectedTables)
file(READ "${OUT}.txt" actualTables)
require_equal("${OUT}.txt (stdout)" "${expectedTables}"
              "${actualTables}")

normalize_store("${GOLDEN}.jsonl" expectedStore)
normalize_store("${OUT}.jsonl" actualStore)
require_equal("${OUT}.jsonl (result store)" "${expectedStore}"
              "${actualStore}")
