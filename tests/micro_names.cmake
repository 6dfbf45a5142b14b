# The benchmark's microbenchmark names, checked in CMake script mode:
#
#   cmake -DRUN_PY=<scmpbench/run.py> -DBENCHES=<binary;binary...>
#         -P micro_names.cmake
#
# scmpbench/run.py's MICRO table reads google-benchmark results by
# binary and benchmark name, and raises on a missing one, so a
# renamed or deleted microbenchmark would only show up in a traced
# benchmark run. This lists every binary in BENCHES with
# --benchmark_list_tests and requires each (binary, name) pair of the
# table to be listed. run.py is only read.

cmake_minimum_required(VERSION 3.16)

foreach(var RUN_PY BENCHES)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "micro_names.cmake needs -D${var}=...")
    endif()
endforeach()

file(READ "${RUN_PY}" text)
string(FIND "${text}" "\nMICRO = {" begin)
if(begin EQUAL -1)
    message(FATAL_ERROR "no MICRO table in ${RUN_PY}")
endif()
string(SUBSTRING "${text}" ${begin} -1 text)
string(FIND "${text}" "\n}" end)
string(SUBSTRING "${text}" 0 ${end} table)

# Entries read ("binary", "BM_Name..." with a line break allowed
# between the two strings.
string(REGEX MATCHALL "\\(\"micro_[a-z_]+\",[ \n]*\"BM_[^\"]+\""
       entries "${table}")
list(LENGTH entries count)
if(count EQUAL 0)
    message(FATAL_ERROR "no microbenchmark names in ${RUN_PY}'s MICRO table")
endif()

set(missing "")
foreach(entry ${entries})
    string(REGEX REPLACE "^\\(\"(micro_[a-z_]+)\",[ \n]*\"(BM_[^\"]+)\"$"
           "\\1" binary "${entry}")
    string(REGEX REPLACE "^\\(\"(micro_[a-z_]+)\",[ \n]*\"(BM_[^\"]+)\"$"
           "\\2" name "${entry}")
    set(path "")
    foreach(candidate ${BENCHES})
        get_filename_component(base "${candidate}" NAME_WE)
        if(base STREQUAL binary)
            set(path "${candidate}")
        endif()
    endforeach()
    if(NOT path)
        message(FATAL_ERROR "MICRO names binary '${binary}', which is not one of: ${BENCHES}")
    endif()
    if(NOT DEFINED listed_${binary})
        execute_process(COMMAND "${path}" --benchmark_list_tests
                        OUTPUT_VARIABLE out RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "${path} --benchmark_list_tests exited ${rc}")
        endif()
        string(REPLACE "\n" ";" listed_${binary} "${out}")
    endif()
    if(NOT name IN_LIST listed_${binary})
        list(APPEND missing "${binary}:${name}")
    endif()
endforeach()

if(missing)
    message(FATAL_ERROR "MICRO names microbenchmarks that do not exist: ${missing}")
endif()
message(STATUS "all ${count} MICRO microbenchmarks exist")
