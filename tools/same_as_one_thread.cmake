# Run `BIN --csv WORKLOAD` at the default thread count and at
# `--threads 1`, and require the two stdouts to match byte for byte.
#   cmake -DBIN=<sassi_prof> -DWORKLOAD=<name> -P same_as_one_thread.cmake
foreach(mode default one)
    if(mode STREQUAL "one")
        set(threads --threads 1)
    else()
        set(threads)
    endif()
    execute_process(COMMAND ${BIN} ${threads} --csv ${WORKLOAD}
        OUTPUT_VARIABLE out_${mode} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${BIN} ${threads} --csv ${WORKLOAD} "
            "exited with ${rc}")
    endif()
endforeach()
if(NOT out_default STREQUAL out_one)
    message(FATAL_ERROR "sassi_prof --csv '${WORKLOAD}' at the default "
        "thread count differs from --threads 1:\n"
        "--- default\n${out_default}\n--- --threads 1\n${out_one}")
endif()
