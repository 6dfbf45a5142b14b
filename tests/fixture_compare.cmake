# Shared by the fixture checks run in CMake script mode
# (study_fixture.cmake, cli_fixture.cmake, bench_fixture.cmake).

# Fail unless @expected equals @actual, reporting the first
# differing line so a failure names the point or run.
function(require_equal what expected actual)
    if(expected STREQUAL actual)
        return()
    endif()
    string(REPLACE "\n" ";" expectedLines "${expected}")
    string(REPLACE "\n" ";" actualLines "${actual}")
    list(LENGTH expectedLines expectedCount)
    list(LENGTH actualLines actualCount)
    set(line 0)
    while(line LESS expectedCount AND line LESS actualCount)
        list(GET expectedLines ${line} e)
        list(GET actualLines ${line} a)
        if(NOT e STREQUAL a)
            break()
        endif()
        math(EXPR line "${line} + 1")
    endwhile()
    set(e "<end of file>")
    set(a "<end of file>")
    if(line LESS expectedCount)
        list(GET expectedLines ${line} e)
    endif()
    if(line LESS actualCount)
        list(GET actualLines ${line} a)
    endif()
    math(EXPR lineNo "${line} + 1")
    message(FATAL_ERROR "${what} differs from the fixture at line "
            "${lineNo}\n  expected: ${e}\n  actual:   ${a}")
endfunction()
