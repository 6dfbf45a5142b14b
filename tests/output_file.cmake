# Output-file check for one bench or example run, run by ctest in
# CMake script mode:
#
#   cmake -DBIN=<binary> -DDIR=<scratch directory> -DFILE=<name>
#         [-DARGS=<args;...>] -P output_file.cmake
#
# Runs BIN with ARGS in a fresh DIR and requires it to exit 0 and
# leave a non-empty FILE there.

cmake_minimum_required(VERSION 3.16)

foreach(var BIN DIR FILE)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "output_file.cmake needs -D${var}=...")
    endif()
endforeach()

file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

execute_process(
    COMMAND "${BIN}" ${ARGS}
    WORKING_DIRECTORY "${DIR}"
    OUTPUT_QUIET
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with '${status}'")
endif()
if(NOT EXISTS "${DIR}/${FILE}")
    file(GLOB written RELATIVE "${DIR}" "${DIR}/*")
    message(FATAL_ERROR "${BIN} wrote no ${FILE} (wrote: ${written})")
endif()
file(SIZE "${DIR}/${FILE}" size)
if(size EQUAL 0)
    message(FATAL_ERROR "${BIN} left ${FILE} empty")
endif()
