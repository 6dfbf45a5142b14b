# scmp command-line golden fixture check, run by ctest in CMake
# script mode:
#
#   cmake -DSCMP=<scmp binary> -DGOLDEN=<tests/golden/cli>
#         -DOUT=<scratch dir> [-DCAPTURE=ON] -P cli_fixture.cmake
#
# Runs `scmp --list` and every run below with --csv, and requires
#   1. the --list text to equal GOLDEN/list.txt byte for byte, and
#   2. each run's command line and CSV output, in order, to equal
#      GOLDEN/runs.txt byte for byte.
# The runs name every value of every enum flag (aliases included)
# and set every numeric machine flag off its default, so a flag
# parsed into the wrong field or enumerator changes a number here.
#
# With CAPTURE the outputs are written to GOLDEN instead;
# scripts/capture_cli_fixtures.sh recaptures after a deliberate
# change to the CLI or to simulated timing.

cmake_minimum_required(VERSION 3.16)

foreach(var SCMP GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "cli_fixture.cmake needs -D${var}=...")
    endif()
endforeach()

set(barnes "barnes --bodies=64 --steps=1")
set(split "${barnes} --net=split --bus-occupancy=8")
set(banked "${barnes} --mem=banked --channels=1 --mem-banks=2")
set(tmkmeans "tmkmeans --points=64 --rounds=1")
set(secpp "secpp --sec-epochs=4")
set(runs
    "${barnes}"
    "${barnes} --protocol=update"
    "${barnes} --protocol=invalidate --organization=private"
    "${barnes} --organization=shared --clusters=2 --procs=4"
    "${barnes} --scc=16K --line=32 --assoc=2 --banks=2"
    "multiprog --refs=20000"
    "multiprog --refs=20000 --icache=1"
    "${barnes} --net=atomic --bus-occupancy=8"
    "${split}"
    "${split} --arbitration=rr"
    "${split} --arbitration=round-robin"
    "${split} --arbitration=priority"
    "${barnes} --net=tree --segments=4 --sf-cap=16"
    "${banked} --mem=flat"
    "${banked}"
    "${banked} --mem-sched=fcfs"
    "${banked} --mem-sched=frfcfs"
    "${banked} --mem-sched=fr-fcfs"
    "${barnes} --consistency=sc"
    "${barnes} --consistency=weak --sb-entries=2"
    "${tmkmeans} --tm=off"
    "${tmkmeans} --tm=eager --tm-set-entries=2"
    "${tmkmeans} --tm=lazy --tm-max-aborts=1"
    "${secpp} --isolation=none"
    "${secpp} --assoc=4 --isolation=waypart"
    "${secpp} --isolation=color --isolation-domains=4"
    "${secpp} --isolation=rand --rekey-fills=64"
    "${barnes} --isolation=color --isolation-domains=4"
    "${barnes} --isolation=rand --rekey-fills=64"
    "fuzz --seed=3 --fuzz-steps=5000 --check"
)

file(MAKE_DIRECTORY "${OUT}")
execute_process(COMMAND "${SCMP}" --list
    OUTPUT_VARIABLE list
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "scmp --list exited with '${status}'")
endif()
file(WRITE "${OUT}/list.txt" "${list}")

set(transcript "")
foreach(run IN LISTS runs)
    separate_arguments(args UNIX_COMMAND "${run}")
    execute_process(COMMAND "${SCMP}" ${args} --csv
        OUTPUT_VARIABLE output
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "scmp ${run} exited with '${status}'")
    endif()
    string(APPEND transcript "$ scmp ${run} --csv\n${output}")
endforeach()
file(WRITE "${OUT}/runs.txt" "${transcript}")

if(CAPTURE)
    file(WRITE "${GOLDEN}/list.txt" "${list}")
    file(WRITE "${GOLDEN}/runs.txt" "${transcript}")
    return()
endif()

include("${CMAKE_CURRENT_LIST_DIR}/fixture_compare.cmake")
file(READ "${GOLDEN}/list.txt" expectedList)
require_equal("scmp --list" "${expectedList}" "${list}")
file(READ "${GOLDEN}/runs.txt" expectedRuns)
require_equal("${OUT}/runs.txt" "${expectedRuns}" "${transcript}")
