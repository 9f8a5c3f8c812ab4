# The cai-serve protocol smoke test: pipe a canned JSON-lines session into
# the server and check the responses -- an analyze result, bad-request
# diagnostics (a malformed line, a directory given as the program) with
# the next request still answered, a drained stats line, and a clean exit
# on shutdown.
#
#   cmake -DTOOL=<cai-serve> -DINPUT=<requests file> -P check_serve.cmake
execute_process(COMMAND ${TOOL} --jobs=2
                INPUT_FILE ${INPUT}
                OUTPUT_VARIABLE OUT
                ERROR_VARIABLE ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "cai-serve exited ${RC}\nstdout:\n${OUT}\nstderr:\n${ERR}")
endif()
foreach(PATTERN
        "\"id\":1,.*\"status\":\"verified\""       # the fig1 analyze request
        "\"id\":2,.*\"status\":\"parse-error\""    # the malformed program
        "\"status\":\"bad-request\""               # the malformed request line
        "\"bad-request\",\"error\":\"cannot open '[^']*/testdata'\"" # a directory
        "\"id\":4,.*\"status\":\"verified\""       # the request after it
        "\"stats\":true,.*\"workers\":2")          # the drained stats report
  if(NOT OUT MATCHES "${PATTERN}")
    message(FATAL_ERROR "response missing /${PATTERN}/\noutput:\n${OUT}")
  endif()
endforeach()
